package sparse

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/tensor"
)

// freezeXoverBucket drives one bucket through its probe phase with timings
// that make `winner` win, leaving it frozen.
func freezeXoverBucket(t *testing.T, op XoverOp, m, k, n, nnz, full int, winner XoverChoice) {
	t.Helper()
	for i := 0; i < 2*xoverProbeRuns; i++ {
		e, c, probe := XoverDecide(op, m, k, n, nnz, full)
		if !probe {
			if c != winner {
				t.Fatalf("bucket froze to %v before probing finished, want %v", c, winner)
			}
			return
		}
		d := time.Millisecond
		if c != winner {
			d = 10 * time.Millisecond
		}
		e.Record(c, d, m*k*n)
	}
}

// TestXoverTableRoundTrip pins the persistence contract: frozen decisions
// survive a save/reset/load cycle and pre-seed their buckets (no re-probe),
// while buckets still probing are not persisted.
func TestXoverTableRoundTrip(t *testing.T) {
	t.Setenv("SAMO_SPARSE_XOVER_TABLE", "off") // keep background saves away
	ResetXover()
	defer ResetXover()
	if prev, err := SetXover("auto"); err != nil {
		t.Fatal(err)
	} else {
		defer SetXover(prev)
	}

	freezeXoverBucket(t, XoverOpForward, 64, 128, 128, 1638, 128*128, XoverSparse)
	freezeXoverBucket(t, XoverOpBackward, 64, 128, 128, 1638, 128*128, XoverDense)
	// One bucket left mid-probe: must not appear in the file.
	if _, _, probe := XoverDecide(XoverOpForward, 64, 128, 128, 8192, 128*128); !probe {
		t.Fatal("expected an undecided bucket")
	}

	path := filepath.Join(t.TempDir(), "sparse_xover.json")
	if err := SaveXoverTable(path); err != nil {
		t.Fatal(err)
	}

	ResetXover()
	if err := LoadXoverTable(path); err != nil {
		t.Fatal(err)
	}
	if _, c, probe := XoverDecide(XoverOpForward, 64, 128, 128, 1638, 128*128); probe || c != XoverSparse {
		t.Fatalf("loaded forward bucket: choice=%v probe=%v, want frozen sparse", c, probe)
	}
	if _, c, probe := XoverDecide(XoverOpBackward, 64, 128, 128, 1638, 128*128); probe || c != XoverDense {
		t.Fatalf("loaded backward bucket: choice=%v probe=%v, want frozen dense", c, probe)
	}
	// The mid-probe bucket was not persisted: still probing after the load.
	if _, _, probe := XoverDecide(XoverOpForward, 64, 128, 128, 8192, 128*128); !probe {
		t.Fatal("undecided bucket leaked into the persisted table")
	}
}

// TestXoverTableKernelSet pins the stale-table rule: a table recorded under
// another kernel set, or one without the kernel_set field, applies no
// decision and is not quarantined, and the next freeze rewrites it under
// this process's kernel set.
func TestXoverTableKernelSet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sparse_xover.json")
	t.Setenv("SAMO_SPARSE_XOVER_TABLE", path)
	ResetXover()
	defer ResetXover()
	if prev, err := SetXover("auto"); err != nil {
		t.Fatal(err)
	} else {
		defer SetXover(prev)
	}

	// Flush, not Save: clearing the dirty flag keeps the background saver
	// from rewriting the stale tables written below.
	freezeXoverBucket(t, XoverOpForward, 64, 128, 128, 1638, 128*128, XoverSparse)
	if err := FlushXoverTable(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	field := fmt.Sprintf(`"kernel_set": %q,`, tensor.KernelSet())
	if !strings.Contains(string(data), field) {
		t.Fatalf("saved table lacks %s:\n%s", field, data)
	}

	other := "avx2"
	if tensor.KernelSet() == "avx2" {
		other = "generic"
	}
	for _, stale := range []string{
		strings.Replace(string(data), field, fmt.Sprintf(`"kernel_set": %q,`, other), 1),
		strings.Replace(string(data), field, "", 1),
	} {
		if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
			t.Fatal(err)
		}
		ResetXover()
		if err := LoadXoverTable(path); !errors.Is(err, errXoverKernelSet) {
			t.Fatalf("LoadXoverTable of a stale table: %v, want errXoverKernelSet", err)
		}
		if _, _, probe := XoverDecide(XoverOpForward, 64, 128, 128, 1638, 128*128); !probe {
			t.Fatal("a stale table's decision was applied")
		}
		if msg := startupLoadXoverTable(path, true); msg != "" {
			t.Fatalf("startup load of a stale table must be silent, got %q", msg)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("stale table was moved away: %v", err)
		}
	}

	ResetXover()
	freezeXoverBucket(t, XoverOpForward, 64, 128, 128, 1638, 128*128, XoverDense)
	if err := FlushXoverTable(); err != nil {
		t.Fatal(err)
	}
	ResetXover()
	if err := LoadXoverTable(path); err != nil {
		t.Fatalf("the freeze did not rewrite the stale table: %v", err)
	}
	if _, c, probe := XoverDecide(XoverOpForward, 64, 128, 128, 1638, 128*128); probe || c != XoverDense {
		t.Fatalf("rewritten table: choice=%v probe=%v, want frozen dense", c, probe)
	}
}

// TestXoverFlushDirtyDiscipline pins when FlushXoverTable writes: never for
// a table holding only disk-loaded (or no) decisions, always after a bucket
// froze in this process, and only once per freeze.
func TestXoverFlushDirtyDiscipline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sparse_xover.json")
	t.Setenv("SAMO_SPARSE_XOVER_TABLE", path)
	ResetXover()
	defer ResetXover()
	if prev, err := SetXover("auto"); err != nil {
		t.Fatal(err)
	} else {
		defer SetXover(prev)
	}

	if err := FlushXoverTable(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("flush of a clean table must not create the file")
	}

	freezeXoverBucket(t, XoverOpForward, 64, 128, 128, 1638, 128*128, XoverSparse)
	if err := FlushXoverTable(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("flush after a freeze must write the table: %v", err)
	}

	// Clean again: a second flush must not resurrect a removed file —
	// loaded-only tables never overwrite another process's save.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := FlushXoverTable(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("flush with nothing new must be a no-op")
	}
}

// TestCorruptXoverTableQuarantined pins the graceful-degradation contract: a
// damaged persisted table is renamed to .corrupt, reported once, and the
// process continues with an empty (re-probing) table.
func TestCorruptXoverTableQuarantined(t *testing.T) {
	ResetXover()
	defer ResetXover()
	dir := t.TempDir()
	path := filepath.Join(dir, "sparse_xover.json")

	if err := os.WriteFile(path, []byte(`{"entries":[{"op":0,`), 0o644); err != nil {
		t.Fatal(err)
	}
	msg := startupLoadXoverTable(path, true)
	if !strings.Contains(msg, "quarantined") {
		t.Fatalf("startup load of truncated table: %q, want quarantine message", msg)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt table still in place: next startup would trip on it again")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if msg := startupLoadXoverTable(path, true); msg != "" {
		t.Fatalf("startup after quarantine must be silent, got %q", msg)
	}
}

func TestMissingXoverTableIsSilent(t *testing.T) {
	ResetXover()
	defer ResetXover()
	path := filepath.Join(t.TempDir(), "absent.json")
	for _, explicit := range []bool{false, true} {
		if msg := startupLoadXoverTable(path, explicit); msg != "" {
			t.Fatalf("missing table (explicit=%v) must be silent, got %q", explicit, msg)
		}
	}
}

// TestXoverPathOff pins the opt-out: SAMO_SPARSE_XOVER_TABLE=off disables
// persistence entirely.
func TestXoverPathOff(t *testing.T) {
	t.Setenv("SAMO_SPARSE_XOVER_TABLE", "off")
	if p := XoverPath(); p != "" {
		t.Fatalf("XoverPath with persistence off = %q, want empty", p)
	}
	if err := FlushXoverTable(); err != nil {
		t.Fatal(err)
	}
}
