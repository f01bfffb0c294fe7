package core

import (
	"errors"
	"math/rand"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// Tests for the exported two-phase commit (PrepareCommit / ApplyPrepared /
// AbortPrepared), BatchOp.RelID as an output of validation, the
// commit-boundary rebalancing hysteresis, and what a snapshot pins.

// TestPrepareApplyEqualsCommit pins that prepare+apply is observably the
// same commit as CommitBatch: same result, same epoch advance, same stats.
func TestPrepareApplyEqualsCommit(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	mkOps := func() []BatchOp {
		return []BatchOp{
			{Rel: "R", Row: tuple.Tuple{1, 2}, Mult: 2},
			{Rel: "S", Row: tuple.Tuple{2, 3}, Mult: 1},
			{Rel: "R", Row: tuple.Tuple{1, 2}, Mult: -1},
		}
	}
	build := func() *Engine {
		e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		if err := Preprocess(e, randomDB(q, rng, 100, 12)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := build()
	if err := ref.CommitBatch(mkOps()); err != nil {
		t.Fatal(err)
	}
	e := build()
	before := e.Epoch()
	if err := e.PrepareCommit(mkOps()); err != nil {
		t.Fatal(err)
	}
	e.ApplyPrepared()
	if got := e.Epoch(); got != before+1 {
		t.Errorf("epoch after ApplyPrepared = %d, want %d", got, before+1)
	}
	sameResultMap(t, "prepare+apply vs CommitBatch", resultMap(e.Enumerate), resultMap(ref.Enumerate))
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestAbortPreparedLeavesStateUntouched pins the abort half: after a
// successful prepare, AbortPrepared must leave result, epoch, N, and the
// pooled validation scratch exactly as before — and let later commits
// proceed. A second prepare while a batch is staged panics and stages
// nothing.
func TestAbortPreparedLeavesStateUntouched(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	if err := Preprocess(e, randomDB(q, rng, 100, 12)); err != nil {
		t.Fatal(err)
	}
	before := resultMap(e.Enumerate)
	epoch, n := e.Epoch(), e.N()
	ops := []BatchOp{
		{Rel: "R", Row: tuple.Tuple{7, 7}, Mult: 1},
		{Rel: "S", Row: tuple.Tuple{7, 7}, Mult: 3},
	}
	if err := e.PrepareCommit(ops); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second PrepareCommit with a batch staged did not panic")
			}
		}()
		e.PrepareCommit(ops)
	}()
	e.AbortPrepared()
	if got := e.Epoch(); got != epoch {
		t.Errorf("epoch after abort = %d, want %d", got, epoch)
	}
	if got := e.N(); got != n {
		t.Errorf("N after abort = %d, want %d", got, n)
	}
	sameResultMap(t, "abort", resultMap(e.Enumerate), before)
	if len(e.batchTouched) != 0 || e.staged {
		t.Errorf("staged scratch survives abort: touched=%d staged=%v", len(e.batchTouched), e.staged)
	}
	// A normal commit goes through.
	if err := e.CommitBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got := e.Epoch(); got != epoch+1 {
		t.Errorf("epoch after post-abort commit = %d, want %d", got, epoch+1)
	}
}

// TestPrepareCommitErrorStagesNothing pins that a failed prepare stages
// nothing, and the next commit goes through.
func TestPrepareCommitErrorStagesNothing(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	if err := Preprocess(e, randomDB(q, rng, 60, 10)); err != nil {
		t.Fatal(err)
	}
	err = e.PrepareCommit([]BatchOp{{Rel: "R", Row: tuple.Tuple{1, 2, 3}, Mult: 1}})
	var ae *relation.ArityError
	if !errors.As(err, &ae) {
		t.Fatalf("arity-mismatched prepare returned %v, want *relation.ArityError", err)
	}
	if e.staged {
		t.Error("failed prepare left a staged batch")
	}
	if err := e.Update("R", tuple.Tuple{50, 51}, 1); err != nil {
		t.Fatalf("engine locked after failed prepare: %v", err)
	}
}

// TestBatchOpRelIDIsOutput pins that validation resolves every op by name:
// ids a caller left in the ops — out of range, or another relation's — are
// ignored and overwritten with the engine's own.
func TestBatchOpRelIDIsOutput(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	build := func() *Engine {
		e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := Preprocess(e, randomDB(q, rand.New(rand.NewSource(34)), 60, 10)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ops := []BatchOp{
		{Rel: "R", RelID: 99, Row: tuple.Tuple{1, 1}, Mult: 1},
		{Rel: "S", RelID: 1, Row: tuple.Tuple{1, 2}, Mult: 1},
		{Rel: "R", RelID: -1, Row: tuple.Tuple{2, 2}, Mult: 1},
	}
	e, ref := build(), build()
	if err := e.CommitBatch(ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := ref.Update(op.Rel, op.Row, op.Mult); err != nil {
			t.Fatal(err)
		}
	}
	sameResultMap(t, "stale ids vs Update", resultMap(e.Enumerate), resultMap(ref.Enumerate))
	for i, want := range []int{1, 2, 1} {
		if ops[i].RelID != want {
			t.Errorf("op %d on %s: RelID %d after commit, want %d", i, ops[i].Rel, ops[i].RelID, want)
		}
	}
}

// TestBatchRebalanceHysteresis is the adversarial-ingest regression for
// the commit-boundary rebalance trigger: a commit whose first relation's
// pass pushes N across the M doubling and whose second relation's pass
// shrinks it back inside the invariant must re-materialize ZERO times —
// the per-relation trigger used to major-rebalance on the way up and risk
// a second on the way down. The invariants must still hold afterwards.
func TestBatchRebalanceHysteresis(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	db := randomDB(q, rand.New(rand.NewSource(35)), 40, 8)
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	// Fill S with rows we can delete, keeping N inside the invariant.
	var sRows []tuple.Tuple
	for v := int64(100); e.N() < e.ThresholdBase()-1; v++ {
		row := tuple.Tuple{v, v}
		if err := e.Update("S", row, 1); err != nil {
			t.Fatal(err)
		}
		sRows = append(sRows, row)
	}
	if len(sRows) < 4 {
		t.Fatalf("could not stage deletable rows: N=%d M=%d", e.N(), e.ThresholdBase())
	}
	m := e.ThresholdBase()
	// The adversarial commit: R's pass inserts enough fresh tuples to push
	// N past M (len(sRows) ≥ headroom+4 ⇒ crossing), S's pass deletes the
	// staged rows, netting N back under M.
	var ops []BatchOp
	grow := m - e.N() + len(sRows)/2 // cross M by half the deletions
	for v := int64(0); v < int64(grow); v++ {
		ops = append(ops, BatchOp{Rel: "R", Row: tuple.Tuple{1000 + v, 1000 + v}, Mult: 1})
	}
	for _, row := range sRows {
		ops = append(ops, BatchOp{Rel: "S", Row: row, Mult: -1})
	}
	majorsBefore := e.Stats().MajorRebalances
	if err := e.CommitBatch(ops); err != nil {
		t.Fatal(err)
	}
	if e.N() >= m {
		t.Fatalf("test setup broken: commit did not net back under M (N=%d M=%d)", e.N(), m)
	}
	if got := e.Stats().MajorRebalances - majorsBefore; got != 0 {
		t.Errorf("transiently-crossing commit ran %d major rebalances, want 0", got)
	}
	if got := e.ThresholdBase(); got != m {
		t.Errorf("M changed to %d on a commit that netted back inside [M/4, M), want %d", got, m)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}

	// Control: a commit that nets OUT of the invariant must still
	// rebalance, exactly once, even when it crosses several doublings.
	n := e.N()
	ops = ops[:0]
	for v := int64(0); v < int64(4*m-n+8); v++ {
		ops = append(ops, BatchOp{Rel: "R", Row: tuple.Tuple{5000 + v, 5000 + v}, Mult: 1})
	}
	majorsBefore = e.Stats().MajorRebalances
	if err := e.CommitBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().MajorRebalances - majorsBefore; got != 1 {
		t.Errorf("net-growing commit ran %d major rebalances, want exactly 1", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestSnapshotCaptureCachedGeneration pins what a snapshot's pins span: two
// snapshots of one epoch pin their own handles, a commit leaves both
// readable, closing one releases its own pins and none of the other's, and a
// warm capture allocates only the handle — it re-pins a freed context's
// frozen handles rather than building new ones.
func TestSnapshotCaptureCachedGeneration(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	if err := Preprocess(e, randomDB(q, rng, 300, 25)); err != nil {
		t.Fatal(err)
	}
	s1 := e.Snapshot()
	s2 := e.Snapshot()
	want := resultMap(e.Enumerate)
	sameResultMap(t, "second snapshot of the epoch", resultMap(s2.Enumerate), want)
	if err := e.Update("R", tuple.Tuple{900, 900}, 1); err != nil {
		t.Fatal(err)
	}
	s3 := e.Snapshot()
	// A superseded epoch stays readable until its snapshots close.
	sameResultMap(t, "superseded snapshot", resultMap(s1.Enumerate), want)
	pinned1 := append([]*relation.Relation(nil), s1.ctx.pinned...)
	s1.Close()
	if len(pinned1) == 0 {
		t.Fatal("the snapshot pinned no relation")
	}
	for _, f := range pinned1 {
		if f.StoreRef().Value() != nil {
			t.Error("closing a snapshot did not release its pins")
		}
	}
	for _, f := range s2.ctx.pinned {
		if f.StoreRef().Value() == nil {
			t.Fatal("closing one of two snapshots of an epoch released the other's pins")
		}
	}
	sameResultMap(t, "snapshot of the epoch after the other closed", resultMap(s2.Enumerate), want)
	pinned2 := s2.ctx.pinned
	s2.Close()
	for _, f := range pinned2 {
		if f.StoreRef().Value() != nil {
			t.Error("closing the last snapshot of a superseded epoch did not release its pins")
		}
	}
	s3.Close()

	// Warm capture cost: at a fixed epoch, Snapshot+Close must allocate
	// only the constant per-snapshot state (the snapshot struct),
	// independent of relation count — far below the ~tens of allocations a
	// forest walk with fresh maps and frozen handles costs.
	e.Snapshot().Close() // put a context on the free list
	allocs := testing.AllocsPerRun(100, func() {
		e.Snapshot().Close()
	})
	if allocs > 4 {
		t.Errorf("warm snapshot capture allocates %v per call, want ≤ 4 (a freed context re-pinned)", allocs)
	}
}

// TestWriterUnpinnedAfterIdleGenerationInvalidation pins the writer-side
// cost: a closed snapshot leaves no relation pinned, so steady single-tuple
// updates stay allocation-free even when snapshots were taken and closed
// between commits.
func TestWriterUnpinnedAfterIdleGenerationInvalidation(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	if err := Preprocess(e, randomDB(q, rng, 400, 40)); err != nil {
		t.Fatal(err)
	}
	// Steady in-place churn on existing tuples, with a snapshot taken and
	// closed before every warm-up cycle.
	var row tuple.Tuple
	e.BaseRelation("R").ForEachUntil(func(tu tuple.Tuple, m int64) bool {
		row = tu.Clone()
		return false
	})
	cycle := func() {
		e.Snapshot().Close() // pins every relation, then releases them
		if err := e.Update("R", row, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Update("R", row, -1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := e.Update("R", row, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Update("R", row, -1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady updates allocate %v per cycle, want 0", allocs)
	}
}
