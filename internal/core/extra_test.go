package core

import (
	"math/rand"
	"strings"
	"testing"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// Nullary atoms (the paper's footnote 1 allows queries with some empty-
// schema atoms as long as one atom is non-empty): a nullary atom forms its
// own connected component whose "result" is the empty tuple with the
// atom's multiplicity, entering the final Product as a scalar factor.
func TestNullaryAtomComponent(t *testing.T) {
	q := query.MustParse("Q(A) = R(A, B), S()")
	if !q.IsHierarchical() {
		t.Fatal("test query not hierarchical")
	}
	db := naive.Database{
		"R": relation.New("R", tuple.NewSchema("A", "B")),
		"S": relation.New("S", tuple.Schema{}),
	}
	db["R"].Set(tuple.Tuple{1, 10}, 2)
	db["R"].Set(tuple.Tuple{2, 20}, 1)
	db["S"].Set(tuple.Tuple{}, 3)
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "nullary", e, db)

	// Updates to the nullary relation scale every result multiplicity.
	if err := e.Update("S", tuple.Tuple{}, 2); err != nil {
		t.Fatal(err)
	}
	db["S"].MustAdd(tuple.Tuple{}, 2)
	sameResult(t, "nullary after update", e, db)

	// Deleting the nullary fact empties the result.
	if err := e.Update("S", tuple.Tuple{}, -5); err != nil {
		t.Fatal(err)
	}
	db["S"].MustAdd(tuple.Tuple{}, -5)
	if got := e.ResultRelation(); got.Size() != 0 {
		t.Fatalf("result after emptying nullary fact: %v", got)
	}
}

func TestExplain(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pre := e.Explain()
	for _, want := range []string{"w=2", "δ=1", "O(N^1.50)", "O(N^0.50)", "∃H", "R^{B}",
		"All: V(B)[∃=AuxA_7, ∃=AuxC_8]", "views: 10 nodes, 8 relations", "AuxA_7 = V(B)[R(A, B)]  (2 nodes)"} {
		if !strings.Contains(pre, want) {
			t.Errorf("Explain missing %q:\n%s", want, pre)
		}
	}
	if strings.Contains(pre, "state:") {
		t.Errorf("Explain shows state before preprocessing")
	}
	if err := Preprocess(e, naive.Database{}); err != nil {
		t.Fatal(err)
	}
	post := e.Explain()
	if !strings.Contains(post, "state: N = 0") || !strings.Contains(post, "view storage:\n") || !strings.Contains(post, "  VB_10: 0 rows, 0 bytes\n") {
		t.Errorf("Explain missing state after preprocessing:\n%s", post)
	}

	// Static engine omits update guarantees.
	s, _ := New(q, Options{Mode: viewtree.Static, Epsilon: 0.25})
	if strings.Contains(s.Explain(), "update") {
		t.Errorf("static Explain mentions updates:\n%s", s.Explain())
	}
}

// Enumeration after a major rebalance must use the re-materialized views
// (view relations are replaced wholesale by materializeAll).
func TestEnumerateAfterMajorRebalance(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	rng := rand.New(rand.NewSource(31))
	db := randomDB(q, rng, 15, 4)
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().MajorRebalances
	// Force growth past M to trigger doubling.
	for i := int64(0); e.Stats().MajorRebalances == before; i++ {
		tu := tuple.Tuple{1000 + i, i % 3}
		applyBoth(t, e, db, "R", tu, 1)
	}
	sameResult(t, "after major rebalance", e, db)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Static and dynamic engines must agree on every result (they build
// different view trees for the same query).
func TestStaticDynamicParity(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, qs := range paperQueries {
		q := query.MustParse(qs)
		db := randomDB(q, rng, 40, 5)
		for _, eps := range []float64{0, 0.5, 1} {
			st, err := New(q, Options{Mode: viewtree.Static, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if err := Preprocess(st, db); err != nil {
				t.Fatal(err)
			}
			dy, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if err := Preprocess(dy, db); err != nil {
				t.Fatal(err)
			}
			sres, dres := st.ResultRelation(), dy.ResultRelation()
			if sres.Size() != dres.Size() {
				t.Fatalf("%s eps=%v: static %d tuples, dynamic %d", qs, eps, sres.Size(), dres.Size())
			}
			mismatch := false
			sres.ForEach(func(tu tuple.Tuple, m int64) {
				if dres.Mult(tu) != m {
					mismatch = true
				}
			})
			if mismatch {
				t.Fatalf("%s eps=%v: static/dynamic multiplicity mismatch", qs, eps)
			}
		}
	}
}

// The work counter must be monotone and enumeration-driven.
func TestWorkCounter(t *testing.T) {
	q := query.MustParse("Q(A) = R(A, B), S(B)")
	db := naive.Database{
		"R": relation.New("R", tuple.NewSchema("A", "B")),
		"S": relation.New("S", tuple.NewSchema("B")),
	}
	for i := int64(0); i < 30; i++ {
		db["R"].Set(tuple.Tuple{i, i % 5}, 1)
		db["S"].Set(tuple.Tuple{i % 5}, 1)
	}
	e, _ := New(q, Options{Mode: viewtree.Static, Epsilon: 0.5})
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	w0 := e.Work()
	e.Enumerate(func(tuple.Tuple, int64) bool { return true })
	w1 := e.Work()
	if w1 <= w0 {
		t.Fatalf("work counter did not advance: %d -> %d", w0, w1)
	}
}
