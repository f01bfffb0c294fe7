package ivmeps_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"ivmeps"
	"ivmeps/internal/wal"
	"ivmeps/internal/wal/faultfs"
)

// Fault-injection tests: every I/O operation the durability layer performs
// is made to fail, one (site, ordinal) at a time, over a shadow-modeled
// workload. The invariants are the package's failure model
// (docs/DURABILITY.md): a failed mutation returns a typed LogWedgedError
// with the engine state untouched, every later mutation refuses with the
// same error while reads keep serving, and a subsequent Open on the real
// filesystem recovers exactly a committed state — the last acknowledged
// commit, or the uncertain in-flight one if its record reached disk —
// never silently wrong data and never a CorruptLogError caused by the
// failure.

// fiOp is one update of the scripted workload.
type fiOp struct {
	rel  string
	row  [2]int64
	mult int64
}

// fiStep is one workload step: a commit through one of the mutation entry
// points, or a checkpoint.
type fiStep struct {
	kind string // "single", "applybatch", "batch", "checkpoint"
	ops  []fiOp
}

// fiSteps is the scripted workload: every mutation entry point, deletes,
// a net effect crossing segment rotations (small SegmentBytes), and
// checkpoints mid-stream. Every delete is valid given the preceding steps,
// so the only failures a run can see are injected ones.
var fiSteps = []fiStep{
	{kind: "single", ops: []fiOp{{"R", [2]int64{3, 1}, 1}}},
	{kind: "applybatch", ops: []fiOp{{"S", [2]int64{1, 4}, 2}, {"S", [2]int64{2, 5}, 1}}},
	{kind: "batch", ops: []fiOp{{"R", [2]int64{4, 2}, 1}, {"S", [2]int64{2, 6}, 1}}},
	{kind: "single", ops: []fiOp{{"R", [2]int64{1, 1}, -1}}},
	{kind: "checkpoint"},
	{kind: "single", ops: []fiOp{{"S", [2]int64{1, 7}, 1}}},
	{kind: "batch", ops: []fiOp{{"R", [2]int64{2, 1}, 2}, {"S", [2]int64{1, 3}, -1}}},
	{kind: "applybatch", ops: []fiOp{{"R", [2]int64{5, 1}, 1}, {"R", [2]int64{6, 2}, 1}}},
	{kind: "single", ops: []fiOp{{"S", [2]int64{2, 8}, 1}}},
	{kind: "checkpoint"},
	{kind: "batch", ops: []fiOp{{"R", [2]int64{3, 1}, -1}, {"S", [2]int64{1, 4}, -2}}},
	{kind: "single", ops: []fiOp{{"R", [2]int64{7, 3}, 1}}},
}

// fiModel is the pure shadow model of the workload: the base relations as
// multiplicity maps, and the joined result computed independently of the
// engine (Q(A, C) = R(A, B), S(B, C) by nested loops).
type fiModel struct {
	rels map[string]map[[2]int64]int64
}

func newFIModel() *fiModel {
	return &fiModel{rels: map[string]map[[2]int64]int64{"R": {}, "S": {}}}
}

func (m *fiModel) apply(ops []fiOp) {
	for _, op := range ops {
		r := m.rels[op.rel]
		r[op.row] += op.mult
		if r[op.row] == 0 {
			delete(r, op.row)
		}
	}
}

// result computes the query result keyed exactly as publicResultMap keys
// enumerated rows.
func (m *fiModel) result() map[string]int64 {
	out := map[string]int64{}
	for ab, mr := range m.rels["R"] {
		for bc, ms := range m.rels["S"] {
			if ab[1] == bc[0] {
				out[fmt.Sprint([]int64{ab[0], bc[1]})] += mr * ms
			}
		}
	}
	for k, v := range out {
		if v == 0 {
			delete(out, k)
		}
	}
	return out
}

// fiRun is the observable outcome of one workload run: the last epoch the
// engine acknowledged, every state the directory may legitimately recover
// to (acknowledged epochs, plus the uncertain failed commit's predicted
// state at lastEpoch+1), and how far the run got.
type fiRun struct {
	lastEpoch uint64
	states    map[uint64]map[string]int64
	seedState map[string]int64 // recoverable state if Build failed after checkpointing
	buildOK   bool
	wedged    bool
}

// applyFIStep drives one commit step through its entry point.
func applyFIStep(e *ivmeps.Engine, step fiStep) error {
	switch step.kind {
	case "single":
		op := step.ops[0]
		return e.Apply(op.rel, op.row[:], op.mult)
	case "applybatch":
		rows := make([][]int64, len(step.ops))
		mults := make([]int64, len(step.ops))
		for i, op := range step.ops {
			rows[i] = op.row[:]
			mults[i] = op.mult
		}
		return e.ApplyBatch(step.ops[0].rel, rows, mults)
	case "batch":
		b := e.NewBatch()
		for _, op := range step.ops {
			b.Apply(op.rel, op.row[:], op.mult)
		}
		return e.Commit(b)
	}
	panic("unknown step kind " + step.kind)
}

// runFaultWorkload runs the scripted workload on a durable engine whose
// file operations go through fs. A checkpoint failure is survivable (the
// engine must keep committing, or be wedged — the remaining steps probe
// which); the first commit failure must be the full wedge, which is
// verified in place: typed error, state untouched, every further mutation
// refused, reads alive, Close clean.
func runFaultWorkload(t *testing.T, dir string, fs wal.VFS) *fiRun {
	t.Helper()
	q := durParse(t)
	opts := ivmeps.Options{
		Epsilon:    0.5,
		Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways, SegmentBytes: 128},
	}
	if fs != nil {
		ivmeps.SetDurabilityFS(&opts.Durability, fs)
	}
	run := &fiRun{states: map[uint64]map[string]int64{}}
	model := newFIModel()

	e, err := ivmeps.New(q, opts)
	if err != nil {
		return run
	}
	seed := []fiOp{{"R", [2]int64{1, 1}, 1}, {"R", [2]int64{2, 1}, 1}, {"S", [2]int64{1, 3}, 1}}
	for _, op := range seed {
		if err := e.LoadWeighted(op.rel, op.row[:], op.mult); err != nil {
			t.Fatalf("seed load: %v", err)
		}
	}
	model.apply(seed)
	run.seedState = model.result()
	if err := e.Build(); err != nil {
		// Build may have failed after its checkpoint reached disk (e.g. on
		// segment retirement), in which case the seed state is recoverable.
		// Either way no commit after it could be logged: every mutation is
		// refused, and reads serve the built seed state.
		if err2 := e.Insert("R", []int64{9, 9}); err2 == nil {
			t.Fatalf("Insert after failed Build (%v) was acknowledged", err)
		}
		if err2 := e.ApplyBatch("R", [][]int64{{9, 9}}, nil); err2 == nil {
			t.Fatalf("ApplyBatch after failed Build (%v) was acknowledged", err)
		}
		if err2 := e.Commit(e.NewBatch().Insert("S", []int64{9, 9})); err2 == nil {
			t.Fatalf("Commit after failed Build (%v) was acknowledged", err)
		}
		if st, epoch := durState(t, e); epoch != 1 || !sameState(st, run.seedState) {
			t.Fatalf("reads after failed Build: %v at epoch %d, want seed state %v at epoch 1", st, epoch, run.seedState)
		}
		e.Close()
		return run
	}
	run.buildOK = true
	st, epoch := durState(t, e)
	if !sameState(st, model.result()) {
		t.Fatalf("shadow model diverges from engine at build: %v vs %v", model.result(), st)
	}
	run.lastEpoch = epoch
	run.states[epoch] = st

	for si, step := range fiSteps {
		if step.kind == "checkpoint" {
			// A checkpoint failure must not lose anything: either the engine
			// keeps committing (checkpoint-local failure) or it wedged
			// (rotation failure inside Checkpointed) — the next commit step
			// observes which, and both paths uphold the invariants below.
			e.Checkpoint()
			continue
		}
		// Predict the post-state of this commit before attempting it; the
		// ops are rolled back out of the shadow if the commit fails.
		model.apply(step.ops)
		predictedState := model.result()
		if err := applyFIStep(e, step); err != nil {
			for _, op := range step.ops { // roll the shadow back
				model.apply([]fiOp{{op.rel, op.row, -op.mult}})
			}
			run.wedged = true
			var lwe *ivmeps.LogWedgedError
			if !errors.As(err, &lwe) {
				t.Fatalf("step %d: commit failed without LogWedgedError: %v", si, err)
			}
			gotSt, gotEpoch := durState(t, e)
			if gotEpoch != run.lastEpoch || !sameState(gotSt, run.states[run.lastEpoch]) {
				t.Fatalf("step %d: failed commit changed engine state: epoch %d (want %d)", si, gotEpoch, run.lastEpoch)
			}
			// Sticky: every further mutation path refuses with the wedge.
			if err2 := e.Insert("R", []int64{9, 9}); !errors.As(err2, &lwe) {
				t.Fatalf("step %d: Insert after wedge = %v, want LogWedgedError", si, err2)
			}
			if err2 := e.ApplyBatch("R", [][]int64{{9, 9}}, nil); !errors.As(err2, &lwe) {
				t.Fatalf("step %d: ApplyBatch after wedge = %v, want LogWedgedError", si, err2)
			}
			b := e.NewBatch()
			b.Insert("S", []int64{9, 9})
			if err2 := e.Commit(b); !errors.As(err2, &lwe) {
				t.Fatalf("step %d: Commit after wedge = %v, want LogWedgedError", si, err2)
			}
			if err2 := e.Checkpoint(); !errors.As(err2, &lwe) {
				t.Fatalf("step %d: Checkpoint after wedge = %v, want LogWedgedError", si, err2)
			}
			// Reads keep serving the last committed state read-only.
			if n := e.Count(); n != len(run.states[run.lastEpoch]) {
				t.Fatalf("step %d: degraded read Count=%d, want %d", si, n, len(run.states[run.lastEpoch]))
			}
			// The failed commit's record may or may not have reached disk;
			// recovery may legitimately land on either state.
			run.states[run.lastEpoch+1] = predictedState
			if err2 := e.Close(); err2 != nil {
				t.Fatalf("step %d: Close on wedged engine = %v, want nil", si, err2)
			}
			return run
		}
		st, epoch := durState(t, e)
		if epoch != run.lastEpoch+1 {
			t.Fatalf("step %d: commit published epoch %d, want %d", si, epoch, run.lastEpoch+1)
		}
		if !sameState(st, predictedState) {
			t.Fatalf("step %d: shadow model diverges: %v vs %v", si, predictedState, st)
		}
		run.lastEpoch = epoch
		run.states[epoch] = st
	}
	// Close may itself hit an armed fault (e.g. a FileClose ordinal); with
	// SyncAlways every acknowledged commit is already on disk, so that
	// changes nothing below.
	e.Close()
	return run
}

// checkFaultRecovery opens the post-fault directory on the real filesystem
// and verifies it recovers exactly a committed (or predicted-uncertain)
// state of the run.
func checkFaultRecovery(t *testing.T, label, dir string, run *fiRun) {
	t.Helper()
	q := durParse(t)
	opts := ivmeps.Options{
		Epsilon:    0.5,
		Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways, SegmentBytes: 128},
	}
	r, err := ivmeps.Open(q, opts)
	if err != nil {
		var cle *ivmeps.CorruptLogError
		if errors.As(err, &cle) {
			t.Fatalf("%s: Open after fault reports corruption: %v", label, err)
		}
		if run.buildOK {
			// Build completed, so the initial checkpoint is on disk and the
			// wedge forbade any write after the failure: recovery must work.
			t.Fatalf("%s: Open after fault failed on a recoverable directory: %v", label, err)
		}
		return // Build never seeded the directory; refusing it is correct.
	}
	defer r.Close()
	got, epoch := durState(t, r)
	if !run.buildOK {
		// Build failed after its checkpoint reached disk; the only data ever
		// written is the seed, so that is the only state recovery may produce.
		if !sameState(got, run.seedState) {
			t.Fatalf("%s: recovery of a failed-Build directory produced %v, want seed state %v", label, got, run.seedState)
		}
		return
	}
	if epoch != run.lastEpoch && epoch != run.lastEpoch+1 {
		t.Fatalf("%s: recovered epoch %d, want %d or %d", label, epoch, run.lastEpoch, run.lastEpoch+1)
	}
	want, ok := run.states[epoch]
	if !ok {
		t.Fatalf("%s: recovered epoch %d was never committed", label, epoch)
	}
	if !sameState(got, want) {
		t.Fatalf("%s: recovered state %v, want %v at epoch %d", label, got, want, epoch)
	}
}

// TestFaultInjectionMatrix is the robustness headline: run the workload
// once per (operation kind, ordinal) pair with that exact operation failing
// — plus an ENOSPC short-write variant for every write — and verify the
// typed-error / unchanged-state / sticky-wedge / exact-recovery invariants.
func TestFaultInjectionMatrix(t *testing.T) {
	// Fault-free counting run: learn how many operations of each kind the
	// workload performs, so the matrix addresses each one.
	counter := faultfs.New(nil)
	clean := runFaultWorkload(t, filepath.Join(t.TempDir(), "log"), counter)
	if clean.wedged || !clean.buildOK {
		t.Fatal("fault-free run did not complete")
	}
	counts := counter.Counts()
	if counts[faultfs.Write] == 0 || counts[faultfs.FileSync] == 0 || counts[faultfs.Rename] == 0 {
		t.Fatalf("counting run saw no writes/syncs/renames: %v", counts)
	}
	total := 0
	for _, kind := range faultfs.Kinds {
		for nth := 1; nth <= counts[kind]; nth++ {
			label := fmt.Sprintf("%s#%d", kind, nth)
			dir := filepath.Join(t.TempDir(), "log")
			ffs := faultfs.New(nil)
			ffs.Inject(kind, nth)
			run := runFaultWorkload(t, dir, ffs)
			if !ffs.Tripped() {
				t.Fatalf("%s: armed fault never fired", label)
			}
			checkFaultRecovery(t, label, dir, run)
			total++
		}
	}
	// ENOSPC: the nth write puts a prefix of the data on disk before
	// failing, leaving a genuinely torn frame recovery must truncate.
	for nth := 1; nth <= counts[faultfs.Write]; nth++ {
		label := fmt.Sprintf("enospc#%d", nth)
		dir := filepath.Join(t.TempDir(), "log")
		ffs := faultfs.New(nil)
		ffs.InjectShortWrite(nth)
		run := runFaultWorkload(t, dir, ffs)
		if !ffs.Tripped() {
			t.Fatalf("%s: armed fault never fired", label)
		}
		checkFaultRecovery(t, label, dir, run)
		total++
	}
	t.Logf("%d fault scenarios (counts %v)", total, counts)
}

// TestFaultInjectedOpen injects faults into recovery itself: for every I/O
// operation Open performs, a failure must surface as an error — never as
// silently wrong data — and must leave the directory undamaged, so a clean
// retry recovers exactly the committed state.
func TestFaultInjectedOpen(t *testing.T) {
	base := filepath.Join(t.TempDir(), "log")
	clean := runFaultWorkload(t, base, nil)
	if clean.wedged || !clean.buildOK {
		t.Fatal("workload did not complete")
	}
	q := durParse(t)
	openOpts := func(dir string, fs wal.VFS) ivmeps.Options {
		opts := ivmeps.Options{
			Epsilon:    0.5,
			Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways, SegmentBytes: 128},
		}
		if fs != nil {
			ivmeps.SetDurabilityFS(&opts.Durability, fs)
		}
		return opts
	}

	// Counting recovery.
	counter := faultfs.New(nil)
	r, err := ivmeps.Open(q, openOpts(copyDir(t, base), counter))
	if err != nil {
		t.Fatalf("counting Open: %v", err)
	}
	wantState, wantEpoch := durState(t, r)
	r.Close()
	if wantEpoch != clean.lastEpoch {
		t.Fatalf("counting Open recovered epoch %d, want %d", wantEpoch, clean.lastEpoch)
	}
	counts := counter.Counts()

	for _, kind := range faultfs.Kinds {
		for nth := 1; nth <= counts[kind]; nth++ {
			label := fmt.Sprintf("%s#%d", kind, nth)
			dir := copyDir(t, base)
			ffs := faultfs.New(nil)
			ffs.Inject(kind, nth)
			r, err := ivmeps.Open(q, openOpts(dir, ffs))
			if err == nil {
				got, epoch := durState(t, r)
				r.Close()
				if epoch != wantEpoch || !sameState(got, wantState) {
					t.Fatalf("%s: faulted Open recovered epoch %d, want %d", label, epoch, wantEpoch)
				}
			} else {
				var cle *ivmeps.CorruptLogError
				if errors.As(err, &cle) {
					t.Fatalf("%s: injected I/O failure misreported as corruption: %v", label, err)
				}
			}
			// Whatever happened, the directory must still recover cleanly.
			r2, err := ivmeps.Open(q, openOpts(dir, nil))
			if err != nil {
				t.Fatalf("%s: clean Open after faulted Open: %v", label, err)
			}
			got, epoch := durState(t, r2)
			r2.Close()
			if epoch != wantEpoch || !sameState(got, wantState) {
				t.Fatalf("%s: faulted Open damaged the directory: clean retry recovered epoch %d, want %d", label, epoch, wantEpoch)
			}
		}
	}
}
