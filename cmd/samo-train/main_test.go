package main

import (
	"net"
	"strings"
	"sync"
	"testing"
)

// TestRunSmoke trains a deliberately tiny configuration end to end through
// the real hybrid-parallel engine, in both dense and SAMO modes.
func TestRunSmoke(t *testing.T) {
	for _, args := range [][]string{
		{"-iters", "3", "-ginter", "1", "-gdata", "1", "-hidden", "16", "-layers", "1"},
		{"-iters", "3", "-ginter", "2", "-gdata", "1", "-hidden", "16", "-layers", "2", "-samo"},
		{"-iters", "3", "-ginter", "1", "-gdata", "2", "-hidden", "16", "-layers", "1", "-overlap"},
	} {
		var buf strings.Builder
		if err := run(args, &buf); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		got := buf.String()
		if !strings.Contains(got, "training cli on") || !strings.Contains(got, "iter") {
			t.Errorf("run(%v) output missing training report:\n%s", args, got)
		}
		if !strings.Contains(got, "exposed collective time:") {
			t.Errorf("run(%v) output missing exposed collective report:\n%s", args, got)
		}
	}
}

// TestRunHelp pins the -h contract: usage on the output writer and a nil
// error (a clean exit), not a parse failure.
func TestRunHelp(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-h"}, &buf); err != nil {
		t.Fatalf("run(-h): %v", err)
	}
	if !strings.Contains(buf.String(), "-ginter") {
		t.Errorf("-h output missing flag usage:\n%s", buf.String())
	}
}

// TestRunRejectsBadLayout pins the error path: more pipeline stages than
// layers must fail with an error, not exit the process.
func TestRunRejectsBadLayout(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-iters", "1", "-ginter", "5", "-layers", "1", "-hidden", "16"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("expected ginter-exceeds-layers error, got %v", err)
	}
}

// TestRunRejectsBadModelFlags pins that model and layout flags are checked
// before anything is built, each with an error naming the flag: a bad
// -gdata, -hidden or -layers used to panic (in the batcher, in the
// attention layer, or on every rank) or train a model nobody asked for.
func TestRunRejectsBadModelFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gdata", "-1"}, "-gdata -1"},
		{[]string{"-gdata", "0"}, "-gdata 0"},
		{[]string{"-ginter", "0"}, "-ginter 0"},
		{[]string{"-iters", "-1"}, "-iters -1"},
		{[]string{"-hidden", "6"}, "not divisible"},
		{[]string{"-hidden", "0"}, "positive Hidden"},
		{[]string{"-hidden", "-4"}, "positive Hidden"},
		{[]string{"-layers", "-1"}, "Layers ≥ 0"},
	} {
		var buf strings.Builder
		err := run(append([]string{"-iters", "1"}, tc.args...), &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): got error %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestRunCheckpointResume trains half the run, then restarts the command
// with -resume and the same checkpoint dir: the second invocation must pick
// up at the saved step and report only the remaining iterations.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-ginter", "2", "-gdata", "1", "-hidden", "16", "-layers", "2",
		"-checkpoint-dir", dir, "-checkpoint-every", "2"}

	var first strings.Builder
	if err := run(append([]string{"-iters", "4"}, base...), &first); err != nil {
		t.Fatalf("first run: %v", err)
	}

	var second strings.Builder
	if err := run(append([]string{"-iters", "8", "-resume"}, base...), &second); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	got := second.String()
	if !strings.Contains(got, "resumed from checkpoint step 4") {
		t.Fatalf("resumed run missing resume banner:\n%s", got)
	}
	if strings.Contains(got, "iter    0") {
		t.Fatalf("resumed run must not report pre-resume iterations:\n%s", got)
	}
	if !strings.Contains(got, "iter    7") {
		t.Fatalf("resumed run missing final iteration report:\n%s", got)
	}
}

// TestRunTransportFlags pins the transport flag surface: unknown transports
// and inconsistent -peers usage fail before any training starts.
func TestRunTransportFlags(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-transport carrier-pigeon", "unknown -transport"},
		{"-transport tcp", "requires -peers"},
		{"-peers localhost:1234,localhost:1235", "requires -transport tcp"},
	} {
		var buf strings.Builder
		err := run(strings.Fields(tc.args), &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%s): got %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestRunTCPTransport drives the command end to end over the TCP transport:
// two run() invocations (one per process index) form a loopback mesh and
// train data-parallel. Only the process hosting the loss-writer rank prints
// iteration lines.
func TestRunTCPTransport(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		addrs = append(addrs, ln.Addr().String())
		ln.Close()
	}
	base := []string{"-iters", "3", "-ginter", "1", "-gdata", "2", "-hidden", "16",
		"-layers", "1", "-transport", "tcp", "-peers", strings.Join(addrs, ","),
		"-dial-timeout", "30s", "-proc"}

	outs := make([]strings.Builder, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = run(append(append([]string{}, base...), []string{"0", "1"}[p]), &outs[p])
		}(p)
	}
	wg.Wait()
	for p := 0; p < 2; p++ {
		if errs[p] != nil {
			t.Fatalf("proc %d: %v\noutput:\n%s", p, errs[p], outs[p].String())
		}
	}
	if got := outs[0].String(); !strings.Contains(got, "transport=tcp") || !strings.Contains(got, "iter") {
		t.Errorf("proc 0 output missing training report:\n%s", got)
	}
	if got := outs[1].String(); strings.Contains(got, "iter ") {
		t.Errorf("proc 1 hosts no loss-writer rank but printed iteration lines:\n%s", got)
	}
}

// TestRunResumeRequiresDir pins flag validation through the engine: -resume
// without -checkpoint-dir is a config error surfaced on Result.Err.
func TestRunResumeRequiresDir(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-iters", "1", "-hidden", "16", "-resume"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "Resume") {
		t.Fatalf("expected resume-requires-dir error, got %v", err)
	}
}
