package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeMLP runs the full pipeline — train, checkpoint handoff into the
// forward-only state, concurrent serving — and relies on run's own bitwise
// verification against the offline forward.
func TestSmokeMLP(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mode", "smoke", "-model", "mlp", "-hidden", "16",
		"-requests", "12", "-concurrency", "4", "-max-batch", "4",
		"-train-iters", "2", "-checkpoint-dir", t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "smoke ok") {
		t.Fatalf("missing smoke verdict in output:\n%s", out.String())
	}
}

// TestSmokeGPTSAMO exercises the compressed-checkpoint handoff.
func TestSmokeGPTSAMO(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mode", "smoke", "-samo", "-hidden", "16",
		"-requests", "8", "-concurrency", "2", "-max-batch", "2",
		"-train-iters", "1", "-checkpoint-dir", t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "smoke ok") {
		t.Fatalf("missing smoke verdict in output:\n%s", out.String())
	}
}

// TestSmokeFreshInit serves the untrained model (-train-iters 0): the
// checkpoint of a never-stepped state must load into the serving state.
func TestSmokeFreshInit(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mode", "smoke", "-hidden", "16", "-requests", "4",
		"-concurrency", "2", "-max-batch", "2", "-train-iters", "0",
		"-checkpoint-dir", t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "smoke ok") {
		t.Fatalf("missing smoke verdict in output:\n%s", out.String())
	}
}

// TestLoadtestReport checks the report lands where -out points, with the
// fields the bench gate reads.
func TestLoadtestReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serving.json")
	var out bytes.Buffer
	err := run([]string{"-mode", "loadtest", "-model", "mlp", "-hidden", "16",
		"-requests", "24", "-concurrency", "4", "-max-batch", "4",
		"-train-iters", "1", "-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"p50_ms", "p99_ms", "throughput_rps", "requests"} {
		if _, ok := rep[key]; !ok {
			t.Fatalf("report missing %q:\n%s", key, blob)
		}
	}
}

// TestBadFlags pins the error paths: unknown mode/model/pad, the smoke +
// pow2 combination (smoke's bitwise claim needs fixed geometry), and
// model and load values that would otherwise panic or fail later with an
// unrelated error — each must be refused at parse time, naming the flag.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "nope"}, "-mode"},
		{[]string{"-model", "nope"}, "-model"},
		{[]string{"-pad", "nope"}, "-pad"},
		{[]string{"-mode", "smoke", "-pad", "pow2"}, "PadFixed"},
		{[]string{"-not-a-flag"}, "not-a-flag"},
		{[]string{"-hidden", "6"}, "not divisible"},
		{[]string{"-hidden", "0"}, "positive Hidden"},
		{[]string{"-layers", "-1"}, "Layers ≥ 0"},
		{[]string{"-model", "mlp", "-hidden", "0"}, "-hidden 0"},
		{[]string{"-samo", "-sparsity", "1.5"}, "-sparsity 1.5"},
		{[]string{"-samo", "-sparsity", "-0.1"}, "-sparsity -0.1"},
		{[]string{"-train-iters", "-1"}, "-train-iters -1"},
		{[]string{"-requests", "-1"}, "-requests -1"},
		{[]string{"-concurrency", "0"}, "-concurrency 0"},
		{[]string{"-mode", "loadtest", "-concurrency", "-1"}, "-concurrency -1"},
		{[]string{"-max-batch", "0"}, "-max-batch 0"},
	} {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: got error %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
	// -h prints usage and exits cleanly.
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-mode") {
		t.Fatal("usage output missing flags")
	}
}
