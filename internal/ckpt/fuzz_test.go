package ckpt

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzReadManifest feeds arbitrary bytes to the manifest parser as the
// manifest of a fuzzed (step, shard). It must never panic and never accept
// a manifest that disagrees with the manager's configuration or with the
// name it was read under, and an accepted manifest must round-trip exactly
// through writeManifest and readManifest.
func FuzzReadManifest(f *testing.F) {
	m, err := New(Options{Dir: f.TempDir(), Shards: 2, Tag: "fuzz-cfg"})
	if err != nil {
		f.Fatal(err)
	}
	valid := func(step, shard int) []byte {
		raw, err := json.Marshal(&Manifest{Version: manifestVersion, Step: step, Shard: shard,
			Shards: 2, Tag: "fuzz-cfg", Fingerprint: 0xfeed, Bytes: 42, CRC: 0xbeef,
			File: m.dataName(step, shard)})
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add(valid(3, 0), 3, 0)
	f.Add(valid(3, 0), 5, 0) // a copy saved under another step's name
	f.Add(valid(2, 1), 2, 0) // ... or another shard's
	f.Add(valid(0, 1), 0, 1)
	f.Add([]byte(`{"version":1,"step":1,"shard":0,"shards":2,"tag":"fuzz-cfg","file":"../ckpt-0000000001-s000.samo"}`), 1, 0)
	f.Add([]byte(`{"version":2,"step":1,"shard":0,"shards":2,"tag":"fuzz-cfg"}`), 1, 0)
	f.Add([]byte(`{"version":1,"step":1,"shard":0,"shards":3,"tag":"other"}`), 1, 0)
	f.Add([]byte(`{not json`), 0, 0)
	f.Add([]byte(`null`), 0, 0)
	f.Fuzz(func(t *testing.T, raw []byte, step, shard int) {
		man, err := m.parseManifest(raw, step, shard)
		if err != nil {
			return
		}
		if man.Version != manifestVersion || man.Shards != 2 || man.Tag != "fuzz-cfg" {
			t.Fatalf("accepted a manifest from another configuration: %+v", man)
		}
		if man.Step != step || man.Shard != shard || man.File != m.dataName(step, shard) {
			t.Fatalf("accepted a manifest for (%d, %d) that names %+v", step, shard, man)
		}
		var mis *MismatchError
		if _, err := m.parseManifest(raw, step+1, shard); !errors.As(err, &mis) {
			t.Fatalf("the manifest of step %d was accepted as step %d's: %v", step, step+1, err)
		}
		if err := m.writeManifest(step, shard, man); err != nil {
			t.Fatal(err)
		}
		got, err := m.readManifest(step, shard)
		if err != nil {
			t.Fatalf("written manifest does not read back: %v", err)
		}
		if *got != *man {
			t.Fatalf("manifest round trip: wrote %+v, read %+v", man, got)
		}
	})
}
