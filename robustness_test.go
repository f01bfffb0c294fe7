package ivmeps_test

// Satellite robustness tests riding with the fault-injection work: Close
// idempotency (including on wedged engines), Open error paths not leaking
// goroutines, stale checkpoint temporaries, and checkpoint rename failures
// being survivable.

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ivmeps"
	"ivmeps/internal/wal/faultfs"
)

// TestEngineCloseIdempotent double-closes engines in every configuration:
// pure in-memory, durable, and recovered. Close must return nil every
// time.
func TestEngineCloseIdempotent(t *testing.T) {
	q := durParse(t)

	mem, err := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Build(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := mem.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "log")
	run := runFaultWorkload(t, dir, nil)
	if run.wedged || !run.buildOK {
		t.Fatal("workload did not complete")
	}
	// runFaultWorkload already closed the engine once; a recovered engine
	// gets the double-close treatment.
	r, err := ivmeps.Open(q, ivmeps.Options{
		Epsilon:    0.5,
		Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways, SegmentBytes: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("first Close of recovered engine: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close of recovered engine: %v", err)
	}
}

// TestEngineCloseWedged wedges a durable engine and closes it twice: both
// closes must return nil — the failure was already reported to the commit
// that latched the wedge, and Close must not write (let alone fsync) a
// log whose on-disk state is unknowable.
func TestEngineCloseWedged(t *testing.T) {
	q := durParse(t)
	ffs := faultfs.New(nil)
	opts := ivmeps.Options{
		Epsilon:    0.5,
		Durability: ivmeps.Durability{Dir: filepath.Join(t.TempDir(), "log"), Sync: ivmeps.SyncAlways},
	}
	ivmeps.SetDurabilityFS(&opts.Durability, ffs)
	e, err := ivmeps.New(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadWeighted("R", []int64{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(faultfs.FileSync, 1)
	err = e.Insert("S", []int64{1, 2})
	var lwe *ivmeps.LogWedgedError
	if !errors.As(err, &lwe) {
		t.Fatalf("Insert with failing fsync = %v, want LogWedgedError", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close on wedged engine = %v, want nil", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close on wedged engine = %v, want nil", err)
	}
}

// TestOpenErrorPathsNoLeak fails Open late — after Build has run and the
// replay has committed batches — and checks the failure is clean: every
// attempt returns an error, and goroutine counts do not grow across
// repeated failed Opens.
func TestOpenErrorPathsNoLeak(t *testing.T) {
	q := durParse(t)
	dir := filepath.Join(t.TempDir(), "log")
	opts := ivmeps.Options{
		Epsilon: 0.5,
		// Small segments: each large batch lands in its own segment, so the
		// replay commits work BEFORE it reads the final segment — the point
		// where the fault will fire.
		Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways, SegmentBytes: 256},
	}
	e, err := ivmeps.New(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadWeighted("R", []int64{0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	// Multi-row batches over both relations, so the replay commits real
	// work before the fault.
	for c := 0; c < 4; c++ {
		b := e.NewBatch()
		for i := 0; i < 64; i++ {
			b.Insert("R", []int64{int64(100*c + i), int64(i % 5)})
			b.Insert("S", []int64{int64(i % 5), int64(1000*c + i)})
		}
		if err := e.Commit(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	openOpts := func(fs *faultfs.FS) ivmeps.Options {
		o := opts
		if fs != nil {
			ivmeps.SetDurabilityFS(&o.Durability, fs)
		}
		return o
	}

	// Counting run: learn how many file reads a full recovery performs.
	before := runtime.NumGoroutine()
	counter := faultfs.New(nil)
	r, err := ivmeps.Open(q, openOpts(counter))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	reads := counter.Counts()[faultfs.ReadFile]
	if reads < 3 {
		t.Fatalf("recovery performed %d file reads, need several segments", reads)
	}

	const attempts = 20
	for i := 0; i < attempts; i++ {
		ffs := faultfs.New(nil)
		ffs.Inject(faultfs.ReadFile, reads)
		if _, err := ivmeps.Open(q, openOpts(ffs)); err == nil {
			t.Fatal("Open with failing segment read succeeded")
		}
	}
	// Give anything a failed Open started a moment to wind down.
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before+8 {
		t.Fatalf("failed Opens leaked goroutines: %d before, %d after %d attempts", before, after, attempts)
	}
}

// TestOpenRemovesStaleCheckpointTmp plants crash-leftover temporary files
// in a valid log directory: Open must ignore and remove them, recovering
// the exact committed state.
func TestOpenRemovesStaleCheckpointTmp(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	clean := runFaultWorkload(t, dir, nil)
	if clean.wedged || !clean.buildOK {
		t.Fatal("workload did not complete")
	}
	stale := []string{
		filepath.Join(dir, "ckpt-00000000000000000099.ckpt.tmp"),
		filepath.Join(dir, "stray.tmp"),
	}
	for _, p := range stale {
		if err := os.WriteFile(p, []byte("half-written checkpoint"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	q := durParse(t)
	r, err := ivmeps.Open(q, ivmeps.Options{
		Epsilon:    0.5,
		Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways, SegmentBytes: 128},
	})
	if err != nil {
		t.Fatalf("Open with stale temporaries: %v", err)
	}
	defer r.Close()
	got, epoch := durState(t, r)
	if epoch != clean.lastEpoch || !sameState(got, clean.states[clean.lastEpoch]) {
		t.Fatalf("recovered epoch %d, want %d", epoch, clean.lastEpoch)
	}
	for _, p := range stale {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("stale temporary %s survived Open", p)
		}
	}
}

// TestCheckpointRenameFailureSurvivable fails the rename that publishes a
// checkpoint: Checkpoint must return the error WITHOUT wedging the engine
// (the log stream is untouched), leave no temporary and no half-visible
// checkpoint behind, and a retry must succeed.
func TestCheckpointRenameFailureSurvivable(t *testing.T) {
	q := durParse(t)
	ffs := faultfs.New(nil)
	dir := filepath.Join(t.TempDir(), "log")
	opts := ivmeps.Options{
		Epsilon:    0.5,
		Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways},
	}
	ivmeps.SetDurabilityFS(&opts.Durability, ffs)
	e, err := ivmeps.New(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.LoadWeighted("R", []int64{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("S", []int64{1, 2}); err != nil {
		t.Fatal(err)
	}

	ffs.Inject(faultfs.Rename, 1)
	if err := e.Checkpoint(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Checkpoint with failing rename = %v, want the injected error", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range names {
		if strings.HasSuffix(ent.Name(), ".tmp") {
			t.Fatalf("failed checkpoint left temporary %s", ent.Name())
		}
	}
	// Not wedged: commits and a checkpoint retry keep working.
	if err := e.Insert("S", []int64{1, 3}); err != nil {
		t.Fatalf("Insert after failed checkpoint = %v, want nil", err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint retry = %v, want nil", err)
	}
	st, epoch := durState(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := ivmeps.Open(q, ivmeps.Options{
		Epsilon:    0.5,
		Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways},
	})
	if err != nil {
		t.Fatalf("Open after checkpoint retry: %v", err)
	}
	defer r.Close()
	got, gotEpoch := durState(t, r)
	if gotEpoch != epoch || !sameState(got, st) {
		t.Fatalf("recovered epoch %d, want %d", gotEpoch, epoch)
	}
}
