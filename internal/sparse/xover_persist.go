package sparse

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparse-dl/samo/internal/tensor"
)

// Crossover persistence. Frozen sparse/dense decisions are machine
// properties, and a serving process is the worst-hit consumer of a cold
// table: every probe run on the losing path is a full-latency request. So
// decided buckets persist to XoverPath() — debounced background save on
// freeze, synchronous FlushXoverTable from the cmds' exits, atomic
// temp-file + rename writes, and a corrupt table quarantined to
// <path>.corrupt at startup.
//
// The two crossover paths are NOT bitwise-identical, so pre-seeding decisions changes numerics relative
// to a cold run that would have frozen differently. That is the point —
// frozen buckets never re-probe for exactly this reason, and persistence
// extends the same stability across processes: a trained-then-served model
// keeps the training run's execution paths. Runs needing machine-
// independent numerics pin a path (SetXover / SAMO_SPARSE_XOVER) as before,
// which bypasses the table entirely.
//
// Decisions are timings, and timings depend on the kernels: a table frozen
// under the portable kernels would impose stale winners on an AVX2 build.
// So the file records the kernel set it was measured with
// (tensor.KernelSet), and a table from another kernel set — or one without
// the field — is ignored until the next freeze rewrites it.

// xoverDirty is set when a bucket freezes in THIS process — the in-memory
// table holds a decision the file may lack. Disk-loaded entries do not set
// it, so a process that froze nothing never rewrites (and possibly
// truncates) a concurrent process's save.
var xoverDirty atomic.Bool

// xoverRecord is the persisted form of one decided bucket.
type xoverRecord struct {
	Op     uint8  `json:"op"`
	MB     uint8  `json:"mb"`
	KB     uint8  `json:"kb"`
	NB     uint8  `json:"nb"`
	DB     uint8  `json:"db"`
	Choice string `json:"choice"` // "sparse" or "dense"
}

type xoverFile struct {
	Description string        `json:"description"`
	KernelSet   string        `json:"kernel_set"`
	Entries     []xoverRecord `json:"entries"`
}

// XoverPath resolves where crossover decisions persist: the file named by
// SAMO_SPARSE_XOVER_TABLE if set ("off" disables persistence and returns
// ""), else sparse_xover.json under the samo directory in the user cache
// dir. Resolved per call so tests can redirect it with a scoped setenv.
func XoverPath() string {
	switch p := os.Getenv("SAMO_SPARSE_XOVER_TABLE"); p {
	case "off":
		return ""
	case "":
		dir, err := os.UserCacheDir()
		if err != nil {
			return ""
		}
		return filepath.Join(dir, "samo", "sparse_xover.json")
	default:
		return p
	}
}

// SaveXoverTable writes every decided bucket to path as JSON via a unique
// temp file and an atomic rename, so concurrent readers never observe a
// partial table. Buckets still probing are skipped.
func SaveXoverTable(path string) error {
	var f xoverFile
	f.Description = "SAMO sparse/dense crossover decisions, keyed by (op, ceil-log2 shape, density band). " +
		"Machine-specific; regenerate after hardware changes."
	f.KernelSet = tensor.KernelSet()
	xoverTable.mu.RLock()
	for k, e := range xoverTable.m {
		c, ok := e.Decided()
		if !ok {
			continue
		}
		f.Entries = append(f.Entries, xoverRecord{
			Op: uint8(k.op), MB: k.mb, KB: k.kb, NB: k.nb, DB: k.db,
			Choice: c.String()})
	}
	xoverTable.mu.RUnlock()
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".sparse_xover-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// errXoverTableParse marks a table that exists but does not parse — the one
// load failure worth quarantining at startup.
var errXoverTableParse = errors.New("unparseable crossover table")

// errXoverKernelSet marks a well-formed table measured under another kernel
// set (or one predating the field): not applied, and not quarantined
// either — the next freeze overwrites it.
var errXoverKernelSet = errors.New("recorded under another kernel set")

// LoadXoverTable pre-seeds the crossover from a file written by
// SaveXoverTable: matching buckets skip the probe phase and are frozen to
// the recorded winner. Records with an op or choice this build does not
// know are skipped. A table recorded under another kernel set applies
// nothing and returns an error matching errXoverKernelSet.
func LoadXoverTable(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f xoverFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("sparse: crossover table %s: %w: %w", path, errXoverTableParse, err)
	}
	if f.KernelSet != tensor.KernelSet() {
		return fmt.Errorf("sparse: crossover table %s: %w (%q, this process runs %q)",
			path, errXoverKernelSet, f.KernelSet, tensor.KernelSet())
	}
	xoverTable.mu.Lock()
	if xoverTable.m == nil {
		xoverTable.m = make(map[xoverKey]*XoverEntry)
	}
	for _, r := range f.Entries {
		if XoverOp(r.Op) > XoverOpBackward {
			continue
		}
		var c XoverChoice
		switch r.Choice {
		case "sparse":
			c = XoverSparse
		case "dense":
			c = XoverDense
		default:
			continue
		}
		e := &XoverEntry{}
		e.chosen.Store(int32(c))
		xoverTable.m[xoverKey{XoverOp(r.Op), r.MB, r.KB, r.NB, r.DB}] = e
	}
	xoverTable.mu.Unlock()
	return nil
}

// xoverSave is the debounced background saver, started lazily on the first
// freeze. Callers never allocate (one buffered channel send), keeping the
// freeze path inside the training steps' zero-allocation contract.
var xoverSave struct {
	once sync.Once
	kick chan struct{}
}

func scheduleXoverSave() {
	if XoverPath() == "" {
		return
	}
	xoverSave.once.Do(func() {
		xoverSave.kick = make(chan struct{}, 1)
		go xoverSaverLoop()
	})
	select {
	case xoverSave.kick <- struct{}{}:
	default:
	}
}

func xoverSaverLoop() {
	for range xoverSave.kick {
		// Coalesce the startup freeze burst into one write; a process that
		// exits inside this window loses the save (no exit hook) — the cmds
		// call FlushXoverTable for that. Routing through the flush keeps the
		// dirty guard authoritative: once any flush has persisted the
		// current decisions, a stale background kick writes nothing.
		time.Sleep(20 * time.Millisecond)
		select {
		case <-xoverSave.kick:
		default:
		}
		_ = FlushXoverTable()
	}
}

// FlushXoverTable synchronously persists the current crossover decisions to
// XoverPath(), creating the directory as needed; the cmds call it on every
// exit path. It is a no-op (nil) when persistence
// is disabled or when this process froze nothing new (xoverDirty): a table
// holding only disk-loaded decisions must not be renamed over a file a
// concurrent process may have extended.
func FlushXoverTable() error {
	path := XoverPath()
	if path == "" {
		return nil
	}
	if !xoverDirty.Swap(false) {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		xoverDirty.Store(true) // still unsaved; a later flush should retry
		return err
	}
	if err := SaveXoverTable(path); err != nil {
		xoverDirty.Store(true)
		return err
	}
	return nil
}

// startupLoadXoverTable is the init-time pre-load with graceful
// degradation: a corrupt table is quarantined to <path>.corrupt once (the
// probe phase rebuilds it), a missing file re-probes silently, and other
// errors surface only when the operator pointed SAMO_SPARSE_XOVER_TABLE at
// the file; a table from another kernel set is skipped silently. Returns
// the warning to log, or "".
func startupLoadXoverTable(path string, explicit bool) string {
	err := LoadXoverTable(path)
	switch {
	case err == nil || os.IsNotExist(err) || errors.Is(err, errXoverKernelSet):
		return ""
	case errors.Is(err, errXoverTableParse):
		quarantine := path + ".corrupt"
		if rerr := os.Rename(path, quarantine); rerr != nil {
			return fmt.Sprintf("sparse: ignoring corrupt crossover table (quarantine failed: %v): %v", rerr, err)
		}
		return fmt.Sprintf("sparse: quarantined corrupt crossover table to %s; re-probing (%v)", quarantine, err)
	case explicit:
		return fmt.Sprintf("sparse: SAMO_SPARSE_XOVER_TABLE not loaded: %v", err)
	default:
		return ""
	}
}

func init() {
	explicit := os.Getenv("SAMO_SPARSE_XOVER_TABLE") != ""
	path := XoverPath()
	if path == "" {
		return
	}
	if msg := startupLoadXoverTable(path, explicit); msg != "" {
		fmt.Fprintf(os.Stderr, "%s\n", msg)
	}
}
