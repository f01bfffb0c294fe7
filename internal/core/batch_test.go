package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// sameEngines compares the enumerated results of two engines over the same
// query.
func sameEngines(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	ra, rb := a.ResultRelation(), b.ResultRelation()
	if ra.Size() != rb.Size() {
		t.Fatalf("%s: result sizes differ: sequential %d, batch %d\nseq:   %v\nbatch: %v",
			label, ra.Size(), rb.Size(), ra, rb)
	}
	ok := true
	ra.ForEach(func(tu tuple.Tuple, m int64) {
		if rb.Mult(tu) != m {
			t.Logf("%s: tuple %v: sequential mult %d, batch mult %d", label, tu, m, rb.Mult(tu))
			ok = false
		}
	})
	if !ok {
		t.Fatalf("%s: multiplicity mismatch", label)
	}
}

// applyBatch commits {rows[i] → mults[i]} to the one relation rel through
// CommitBatch; a nil mults applies every row with multiplicity +1. The op
// list is reused across calls (the tests run one at a time), so a warmed
// batch cycle stays allocation-free.
func applyBatch(e *Engine, rel string, rows []tuple.Tuple, mults []int64) error {
	ops := batchOps[:0]
	for i, r := range rows {
		m := int64(1)
		if mults != nil {
			m = mults[i]
		}
		ops = append(ops, BatchOp{Rel: rel, Row: r, Mult: m})
	}
	err := e.CommitBatch(ops)
	clear(ops) // drop the references into the caller's rows
	batchOps = ops[:0]
	return err
}

var batchOps []BatchOp

// randomBatch builds a mixed insert/delete batch against the live contents
// of rel in e: deletes target stored tuples (possibly several times, to
// exercise over-delete-free aggregation), inserts mix duplicates of stored
// tuples with fresh ones.
func randomBatch(rng *rand.Rand, e *Engine, rel string, vars int, size int, domain int64) ([]tuple.Tuple, []int64) {
	base := e.BaseRelation(rel)
	var stored []tuple.Tuple
	base.ForEach(func(tu tuple.Tuple, m int64) { stored = append(stored, tu.Clone()) })
	rows := make([]tuple.Tuple, 0, size)
	mults := make([]int64, 0, size)
	for i := 0; i < size; i++ {
		var tu tuple.Tuple
		if len(stored) > 0 && rng.Intn(2) == 0 {
			tu = stored[rng.Intn(len(stored))].Clone()
		} else {
			tu = make(tuple.Tuple, vars)
			for j := range tu {
				tu[j] = tuple.Value(rng.Int63n(domain))
			}
		}
		m := int64(1 + rng.Intn(2))
		if rng.Intn(3) == 0 {
			// Delete at most what is stored plus what this batch inserted
			// earlier, so the sequential replay also succeeds.
			avail := base.Mult(tu)
			for k, r := range rows {
				if r.Equal(tu) {
					avail += mults[k]
				}
			}
			if avail == 0 {
				continue
			}
			m = -(1 + rng.Int63n(avail))
			if -m > avail {
				m = -avail
			}
		}
		rows = append(rows, tu)
		mults = append(mults, m)
	}
	return rows, mults
}

// TestApplyBatchMatchesSequential is the observational-equivalence property
// test: for random mixed batches (including rebalance-triggering growth and
// shrink phases), a one-relation batch on one engine must enumerate the
// same result as the same updates applied one by one with Update on
// another, and both engines must keep their invariants.
func TestApplyBatchMatchesSequential(t *testing.T) {
	queries := []string{
		"Q(A, C) = R(A, B), S(B, C)",
		"Q(A, B) = R(A, B), S(B)",
		"Q(A) = R(A, B), S(B)",
		"Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)",
		multiTreeQuery,
		sharedViewsQuery,
	}
	rng := rand.New(rand.NewSource(404))
	for _, qs := range queries {
		q := query.MustParse(qs)
		for _, eps := range []float64{0, 0.5} {
			label := fmt.Sprintf("%s eps=%v", qs, eps)
			db := randomDB(q, rng, 30, 5)
			seq, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			bat, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if err := Preprocess(seq, db.Clone()); err != nil {
				t.Fatal(err)
			}
			if err := Preprocess(bat, db.Clone()); err != nil {
				t.Fatal(err)
			}
			rels := q.RelationNames()
			for round := 0; round < 8; round++ {
				rel := rels[rng.Intn(len(rels))]
				vars := 0
				for _, a := range q.Atoms {
					if a.Rel == rel {
						vars = len(a.Vars)
					}
				}
				// Alternate growth-heavy and churn batches so both the
				// doubling and halving rebalance triggers fire.
				size := 40
				if round%3 == 2 {
					size = 150 // large enough to cross M on one batch
				}
				rows, mults := randomBatch(rng, seq, rel, vars, size, 6+int64(round))
				for i := range rows {
					if err := seq.Update(rel, rows[i], mults[i]); err != nil {
						t.Fatalf("%s: sequential update %v %d: %v", label, rows[i], mults[i], err)
					}
				}
				if err := applyBatch(bat, rel, rows, mults); err != nil {
					t.Fatalf("%s: batch: %v", label, err)
				}
				sameEngines(t, fmt.Sprintf("%s round %d", label, round), seq, bat)
				if seq.N() != bat.N() {
					t.Fatalf("%s: N diverged: sequential %d, batch %d", label, seq.N(), bat.N())
				}
				if err := seq.CheckInvariants(); err != nil {
					t.Fatalf("%s: sequential invariants: %v", label, err)
				}
				if err := bat.CheckInvariants(); err != nil {
					t.Fatalf("%s: batch invariants: %v", label, err)
				}
			}
		}
	}
}

// TestApplyBatchValidation checks the all-or-nothing error contract: a
// batch with an over-delete leaves the engine unchanged.
func TestApplyBatchValidation(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	db := randomDB(q, rand.New(rand.NewSource(7)), 20, 4)
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	before := e.ResultRelation()
	nBefore := e.N()

	// Over-delete of an absent tuple, placed after valid rows.
	rows := []tuple.Tuple{{100, 100}, {101, 101}, {999, 999}}
	mults := []int64{1, 1, -1}
	if err := applyBatch(e, "R", rows, mults); err == nil {
		t.Fatal("over-delete batch accepted")
	}
	if e.N() != nBefore {
		t.Fatalf("failed batch changed N: %d -> %d", nBefore, e.N())
	}
	after := e.ResultRelation()
	if after.Size() != before.Size() {
		t.Fatalf("failed batch changed result: %d -> %d tuples", before.Size(), after.Size())
	}

	// A delete covered by an earlier insert in the same batch is fine.
	if err := applyBatch(e, "R", []tuple.Tuple{{55, 56}, {55, 56}}, []int64{1, -1}); err != nil {
		t.Fatalf("insert-then-delete batch rejected: %v", err)
	}
	// Arity mismatch.
	if err := applyBatch(e, "R", []tuple.Tuple{{1, 2, 3}}, nil); err == nil {
		t.Fatal("arity-mismatched batch accepted")
	}
	// Nil mults means all +1.
	if err := applyBatch(e, "R", []tuple.Tuple{{200, 201}}, nil); err != nil {
		t.Fatal(err)
	}
	if e.BaseRelation("R").Mult(tuple.Tuple{200, 201}) != 1 {
		t.Fatal("nil-mults insert not applied")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMInvariantUnderChurn drives the rebalancing trigger through growth
// and shrink phases and checks the size invariant ⌊M/4⌋ ≤ N < M (i.e.
// N < M ≤ 4N + 3) after every update, exercising both setM branches of
// Figure 22.
func TestMInvariantUnderChurn(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, randomDB(q, rand.New(rand.NewSource(9)), 40, 8)); err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		n, m := e.N(), e.ThresholdBase()
		if n >= m || n < m/4 {
			t.Fatalf("%s: M invariant violated: N=%d M=%d", step, n, m)
		}
		if m < 1 {
			t.Fatalf("%s: M=%d below clamp", step, m)
		}
	}
	check("initial")
	// Growth: force repeated doublings.
	for i := int64(0); i < 300; i++ {
		if err := e.Update("R", tuple.Tuple{1000 + i, i % 5}, 1); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("grow %d", i))
	}
	grew := e.Stats().MajorRebalances
	if grew == 0 {
		t.Fatal("growth phase triggered no major rebalance")
	}
	// Shrink: delete everything we added (and more of the original data),
	// forcing the halving branch repeatedly, down to an empty R.
	for i := int64(0); i < 300; i++ {
		if err := e.Update("R", tuple.Tuple{1000 + i, i % 5}, -1); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("shrink %d", i))
	}
	if e.Stats().MajorRebalances == grew {
		t.Fatal("shrink phase triggered no major rebalance")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
