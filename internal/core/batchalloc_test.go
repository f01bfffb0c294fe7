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

// Allocation pins for the batch path's pooled scratch: the validation and
// grouping tables, the delta pool (including the >16-row delta index kept
// across reuse), and the relations' slab arenas together make repeated
// batches allocation-free outside genuinely new entries — and prove no
// tuple.Key string is ever built in batch propagation.

// TestApplyBatchColdInsertZeroAllocs pins a cold-insert-heavy batch cycle
// at zero allocations: every run inserts a batch of never-before-seen
// tuples (new entry-table keys, new index bucket keys, new partition keys)
// and then deletes them. With the old encoded-string keying this cost
// multiple key-string allocations per row; with tuple-native tables the
// pooled entries, buckets, grouping maps, and delta indexes absorb all of
// it.
func TestApplyBatchColdInsertZeroAllocs(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	if err := Preprocess(e, randomDB(q, rng, 400, 40)); err != nil {
		t.Fatal(err)
	}

	const batchRows = 64
	rows := make([]tuple.Tuple, batchRows)
	buf := make(tuple.Tuple, 2*batchRows)
	mults := make([]int64, batchRows)
	negs := make([]int64, batchRows)
	for i := range rows {
		rows[i] = buf[2*i : 2*i+2]
		mults[i] = 1
		negs[i] = -1
	}
	next := int64(1000) // beyond the preprocessed domain: every row is cold
	cycle := func() {
		for i := range rows {
			rows[i][0], rows[i][1] = next, next+1
			next += 2
		}
		if err := applyBatch(e, "R", rows, mults); err != nil {
			t.Fatal(err)
		}
		if err := applyBatch(e, "R", rows, negs); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools, arenas, and table capacities.
	for i := 0; i < 3; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("cold-insert batch cycle allocates %v per run, want 0 (%.3f per row)",
			n, n/(2*batchRows))
	}
}

// TestApplyBatchValidationPooledZeroAllocs pins the all-or-nothing
// validation scratch: a batch that repeatedly updates existing tuples
// (the validation map sees every row, the propagation sees aggregated
// no-op-free deltas) must not allocate once warm.
func TestApplyBatchValidationPooledZeroAllocs(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	if err := Preprocess(e, randomDB(q, rng, 200, 20)); err != nil {
		t.Fatal(err)
	}
	// Rows duplicating stored tuples, each inserted then deleted within the
	// same batch: nets cancel, so propagation is a no-op and the batch
	// exercises exactly the validation/grouping scratch.
	base := e.BaseRelation("R")
	var rows []tuple.Tuple
	var mults []int64
	base.ForEachUntil(func(tu tuple.Tuple, m int64) bool {
		rows = append(rows, tu.Clone(), tu.Clone())
		mults = append(mults, 1, -1)
		return len(rows) < 80
	})
	if len(rows) < 4 {
		t.Fatal("preprocessed relation unexpectedly small")
	}
	run := func() {
		if err := applyBatch(e, "R", rows, mults); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("validation-only batch allocates %v per run, want 0", n)
	}
}

// TestApplyBatchErrorReleasesScratch pins the error-path hygiene of the
// pooled validation scratch: a batch rejected by validation must leave no
// references to the caller's rows in the engine's pooled map or group
// list (the same release the success path performs).
func TestApplyBatchErrorReleasesScratch(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	if err := Preprocess(e, randomDB(q, rng, 50, 10)); err != nil {
		t.Fatal(err)
	}
	tu := tuple.Tuple{1, 2}
	if err := e.Update("R", tu, 4); err != nil {
		t.Fatal(err)
	}
	stored := e.BaseRelation("R").Mult(tu)
	rows := []tuple.Tuple{tu, {900, 900}}
	err = applyBatch(e, "R", rows, []int64{1, -5})
	if err == nil {
		t.Fatal("over-deleting batch accepted")
	}
	var neg *relation.MultiplicityError
	if !errors.As(err, &neg) {
		t.Fatalf("over-delete returned %T, want *relation.MultiplicityError", err)
	}
	// Have must report the multiplicity available at the failing row (the
	// stored count of {900,900}, which is 0) — not a zeroed pooled group.
	if neg.Have != 0 || neg.Delta != -5 {
		t.Errorf("MultiplicityError = Have %d Delta %d, want Have 0 Delta -5", neg.Have, neg.Delta)
	}
	// And a delete exceeding a positive stored multiplicity reports it.
	if stored > 0 {
		err = applyBatch(e, "R", []tuple.Tuple{tu}, []int64{-(stored + 3)})
		if !errors.As(err, &neg) {
			t.Fatalf("over-delete of stored tuple returned %T", err)
		}
		if neg.Have != stored {
			t.Errorf("MultiplicityError.Have = %d, want stored multiplicity %d", neg.Have, stored)
		}
	}
	if err := applyBatch(e, "R", []tuple.Tuple{{1, 2}, {3, 4, 5}}, nil); err == nil {
		t.Fatal("arity-mismatched batch accepted")
	}
	for i := range e.relTab {
		br := &e.relTab[i]
		if n := br.val.Len(); n != 0 {
			t.Errorf("pooled relation slot %d: validation map holds %d entries after failed batches, want 0", i, n)
		}
		for j := range br.groups[:cap(br.groups)] {
			if g := &br.groups[:cap(br.groups)][j]; g.t != nil {
				t.Errorf("pooled group %d/%d still references a caller row after failed batches", i, j)
			}
		}
		if br.touched {
			t.Errorf("pooled relation slot %d still marked touched after failed batches", i)
		}
	}
	if len(e.batchTouched) != 0 {
		t.Errorf("touched-slot list holds %d entries after failed batches, want 0", len(e.batchTouched))
	}
	if e.staged || e.stagedApplied != 0 {
		t.Errorf("staged state survives failed batches: staged=%v applied=%d", e.staged, e.stagedApplied)
	}
}
