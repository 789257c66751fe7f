package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeState is a minimal State: Save emits its payload, Load replaces it.
type fakeState struct {
	payload []byte
	fp      uint64
}

func (s *fakeState) Save(w io.Writer) (int64, error) {
	n, err := w.Write(s.payload)
	return int64(n), err
}

func (s *fakeState) Load(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	s.payload = raw
	return nil
}

func (s *fakeState) Fingerprint() uint64 { return s.fp }

func newMgr(t *testing.T, shards, keep int) *Manager {
	t.Helper()
	m, err := New(Options{Dir: t.TempDir(), Shards: shards, Keep: keep, Tag: "test-cfg"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func payload(step, shard int) []byte {
	return []byte(fmt.Sprintf("state step=%d shard=%d padded-to-make-it-nontrivial", step, shard))
}

func saveStep(t *testing.T, m *Manager, step, shards int) {
	t.Helper()
	for s := 0; s < shards; s++ {
		if err := m.Save(step, s, &fakeState{payload: payload(step, s), fp: uint64(s)}); err != nil {
			t.Fatalf("save step %d shard %d: %v", step, s, err)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := newMgr(t, 2, 2)
	saveStep(t, m, 3, 2)
	step, warns, ok := m.LatestStep()
	if !ok || step != 3 || len(warns) != 0 {
		t.Fatalf("LatestStep = %d, %v, %v; want 3, none, true", step, warns, ok)
	}
	for s := 0; s < 2; s++ {
		st := &fakeState{fp: uint64(s)}
		if err := m.Load(3, s, st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.payload, payload(3, s)) {
			t.Fatalf("shard %d round-trip mismatch: %q", s, st.payload)
		}
	}
}

func TestNoCheckpointYet(t *testing.T) {
	m := newMgr(t, 1, 2)
	if _, _, ok := m.LatestStep(); ok {
		t.Fatal("empty directory reported a checkpoint")
	}
}

func TestCorruptLatestFallsBackWithWarning(t *testing.T) {
	m := newMgr(t, 2, 3)
	saveStep(t, m, 1, 2)
	saveStep(t, m, 2, 2)
	// Bit-flip the newest step's shard-0 data file.
	path := filepath.Join(m.Dir(), m.dataName(2, 0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	step, warns, ok := m.LatestStep()
	if !ok || step != 1 {
		t.Fatalf("corrupt latest: LatestStep = %d, ok=%v; want fallback to 1", step, ok)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "step 2") {
		t.Fatalf("fallback must surface a warning naming step 2, got %v", warns)
	}
}

func TestKillPointTruncationAlwaysLeavesLoadable(t *testing.T) {
	// Simulate a crash at every truncation point of the newest data file:
	// whatever survives, LatestStep must hand back a verified step (the
	// truncated one only if it still checks out — i.e. never).
	m := newMgr(t, 1, 3)
	saveStep(t, m, 1, 1)
	saveStep(t, m, 2, 1)
	path := filepath.Join(m.Dir(), m.dataName(2, 0))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut += 7 {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		step, _, ok := m.LatestStep()
		if !ok {
			t.Fatalf("cut=%d: no loadable checkpoint at all", cut)
		}
		if step != 1 {
			t.Fatalf("cut=%d: truncated step %d passed verification", cut, step)
		}
		st := &fakeState{fp: 0}
		if err := m.Load(step, 0, st); err != nil {
			t.Fatalf("cut=%d: loading fallback: %v", cut, err)
		}
		if !bytes.Equal(st.payload, payload(1, 0)) {
			t.Fatalf("cut=%d: fallback payload mismatch", cut)
		}
	}
	// Restore the file: full bytes verify again and step 2 returns.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if step, _, ok := m.LatestStep(); !ok || step != 2 {
		t.Fatalf("restored file: LatestStep = %d, ok=%v; want 2", step, ok)
	}
}

func TestIncompleteStepIgnored(t *testing.T) {
	m := newMgr(t, 2, 2)
	saveStep(t, m, 1, 2)
	// Step 2 saved on shard 0 only: the crash window between shard saves.
	if err := m.Save(2, 0, &fakeState{payload: payload(2, 0), fp: 0}); err != nil {
		t.Fatal(err)
	}
	step, warns, ok := m.LatestStep()
	if !ok || step != 1 {
		t.Fatalf("incomplete step: LatestStep = %d, ok=%v; want 1", step, ok)
	}
	if len(warns) != 1 {
		t.Fatalf("incomplete step must warn, got %v", warns)
	}
}

func TestCorruptManifestSkipped(t *testing.T) {
	m := newMgr(t, 1, 2)
	saveStep(t, m, 1, 1)
	saveStep(t, m, 2, 1)
	path := filepath.Join(m.Dir(), m.manifestName(2, 0))
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	step, warns, ok := m.LatestStep()
	if !ok || step != 1 || len(warns) != 1 {
		t.Fatalf("corrupt manifest: LatestStep = %d, %v, %v; want 1 with warning", step, warns, ok)
	}
}

func TestLoadRefusesFingerprintMismatch(t *testing.T) {
	m := newMgr(t, 1, 2)
	if err := m.Save(1, 0, &fakeState{payload: payload(1, 0), fp: 0xAAAA}); err != nil {
		t.Fatal(err)
	}
	err := m.Load(1, 0, &fakeState{fp: 0xBBBB})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch must refuse load, got %v", err)
	}
}

func TestLoadRefusesTagMismatch(t *testing.T) {
	m := newMgr(t, 1, 2)
	saveStep(t, m, 1, 1)
	other, err := New(Options{Dir: m.Dir(), Shards: 1, Keep: 2, Tag: "different-cfg"})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Load(1, 0, &fakeState{fp: 0}); err == nil || !strings.Contains(err.Error(), "tag") {
		t.Fatalf("tag mismatch must refuse load, got %v", err)
	}
	if _, _, ok := other.LatestStep(); ok {
		t.Fatal("tag mismatch must hide the checkpoint from LatestStep")
	}
}

func TestPruneRetention(t *testing.T) {
	m := newMgr(t, 2, 2)
	for step := 1; step <= 5; step++ {
		saveStep(t, m, step, 2)
	}
	// Temp debris from an interrupted save must also be cleared.
	debris := filepath.Join(m.Dir(), "ckpt-0000000099-s000.samo.tmp-123")
	if err := os.WriteFile(debris, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Prune(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(m.Dir())
	if err != nil {
		t.Fatal(err)
	}
	// 2 steps × 2 shards × (data + manifest) = 8 files.
	if len(ents) != 8 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("after prune: %d files %v, want 8", len(ents), names)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("prune left temp debris behind")
	}
	step, _, ok := m.LatestStep()
	if !ok || step != 5 {
		t.Fatalf("after prune: LatestStep = %d, ok=%v; want 5", step, ok)
	}
	if err := m.Load(4, 0, &fakeState{fp: 0}); err != nil {
		t.Fatalf("second-newest step must survive prune: %v", err)
	}
	if err := m.Load(3, 0, &fakeState{fp: 0}); err == nil {
		t.Fatal("pruned step still loadable")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{Dir: "", Shards: 1}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := New(Options{Dir: t.TempDir(), Shards: 0}); err == nil {
		t.Fatal("zero shards accepted")
	}
	m, err := New(Options{Dir: t.TempDir(), Shards: 1, Keep: 0})
	if err != nil {
		t.Fatal(err)
	}
	if m.opts.Keep != 2 {
		t.Fatalf("Keep clamped to %d, want 2", m.opts.Keep)
	}
	if err := m.Save(1, 5, &fakeState{}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestManifestBoundToItsName pins the manifest-name binding: a copy of step
// 3's manifest saved under step 5's name must neither make step 5 the
// latest checkpoint nor load step 3's bytes as step 5, and a manifest whose
// File climbs out of the directory is refused even when the bytes it names
// would verify.
func TestManifestBoundToItsName(t *testing.T) {
	m := newMgr(t, 1, 2)
	saveStep(t, m, 3, 1)
	raw, err := os.ReadFile(filepath.Join(m.Dir(), m.manifestName(3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(m.Dir(), m.manifestName(5, 0)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	step, warns, ok := m.LatestStep()
	if !ok || step != 3 || len(warns) != 1 || !strings.Contains(warns[0], "step 5") {
		t.Fatalf("renamed manifest: LatestStep = %d, %v, %v; want 3 with a warning naming step 5", step, warns, ok)
	}
	var mis *MismatchError
	if err := m.Load(5, 0, &fakeState{fp: 0}); !errors.As(err, &mis) || mis.Field != "step" {
		t.Fatalf("Load(5) through step 3's manifest: %v, want a step MismatchError", err)
	}

	// A manifest for step 1 whose File points outside the directory at
	// bytes that match its length and CRC.
	outside := filepath.Join(t.TempDir(), "outside.samo")
	data := payload(1, 0)
	if err := os.WriteFile(outside, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(m.Dir(), outside)
	if err != nil || !strings.HasPrefix(rel, "..") {
		t.Fatalf("test setup: %q relative to %q = %q, %v", outside, m.Dir(), rel, err)
	}
	man := Manifest{Version: manifestVersion, Step: 1, Shard: 0, Shards: 1, Tag: "test-cfg",
		Bytes: int64(len(data)), CRC: crc32.ChecksumIEEE(data), File: rel}
	enc, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(m.Dir(), m.manifestName(1, 0)), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	st := &fakeState{fp: 0}
	if err := m.Load(1, 0, st); !errors.As(err, &mis) || mis.Field != "file" {
		t.Fatalf("Load through a ../ manifest: %v (payload %q), want a file MismatchError", err, st.payload)
	}
	if err := m.verifyStep(1); !errors.As(err, &mis) {
		t.Fatalf("verifyStep through a ../ manifest: %v, want a MismatchError", err)
	}
}
