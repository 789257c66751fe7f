package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/tensor"
)

func TestMain(m *testing.M) {
	// Keep autotuner and crossover decisions in memory: a test must not
	// write the user's tables.
	os.Setenv("SAMO_GEMM_TUNE", "off")
	os.Setenv("SAMO_SPARSE_XOVER_TABLE", "off")
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricsMatchBenchmarkFile pins the metric lists to BENCHMARK.json.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, names []struct{ Name, Unit string }) {
		if len(defs) != len(names) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(names))
			return
		}
		for i, d := range defs {
			if d.name != names[i].Name || d.unit != names[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json %s (%s)",
					kind, i, d.name, d.unit, names[i].Name, names[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(f.Workloads), len(workloads))
	}
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

// TestWorkloadsTiny runs every workload briefly, untraced and traced, and
// checks that each run is correct and prints every metric with its unit.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and serves for about a minute")
	}
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			err := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0.4", "--trace", trace}, &out)
			if err != nil {
				t.Fatalf("%s trace %s: %v\n%s", w.Name, trace, err, out.String())
			}
			res := lastLine(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%t attempted=%d failed=%d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := f.EndToEnd
			if trace == "1" {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s in %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedLossFails checks that a loss differing from its reference
// in one bit fails its batch and makes the run incorrect.
func TestCorruptedLossFails(t *testing.T) {
	ref := []float64{4.1, 3.9, 3.7}
	got := append([]float64(nil), ref...)
	got[1] = math.Float64frombits(math.Float64bits(got[1]) ^ 1)
	rep := newReport()
	rep.attempted = len(got)
	rep.countMismatches(lossMismatches(got, ref))
	if rep.failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.failed)
	}
	for _, d := range endToEnd {
		rep.set(d.name, 1, 1)
	}
	var out bytes.Buffer
	if err := rep.write(&out, false); err != nil {
		t.Fatal(err)
	}
	if res := lastLine(t, out.String()); res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted loss reported correct=%t failed=%d", res.Correct, res.Failed)
	}
	if n := lossMismatches(ref, ref); n != 0 {
		t.Fatalf("identical losses: %d mismatches", n)
	}
}

// TestCorruptedResponseFails serves requests against references of which
// one bit is flipped: every request must fail as a mismatch.
func TestCorruptedResponseFails(t *testing.T) {
	s, err := setupServing(newTrainInputs(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.engine.Close()
	for _, ref := range s.refs {
		ref[0] = math.Float32frombits(math.Float32bits(ref[0]) ^ 1)
	}
	rep := newReport()
	s.openLoops(rep, 2*time.Second, tensor.NewRNG(1))
	if rep.attempted == 0 || rep.failed != rep.attempted || rep.mismatched != rep.attempted {
		t.Fatalf("attempted %d, failed %d, mismatched %d: want every request mismatched",
			rep.attempted, rep.failed, rep.mismatched)
	}
}
