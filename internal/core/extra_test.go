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
		"All: V(B)[∃=AuxA_7, ∃=AuxC_8]", "views: 10 nodes, 4 relations, 6 nodes read off an index; shared:", "AuxA_7 = V(B)[R(A, B)]  (2 nodes)"} {
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
	if !strings.Contains(post, "state: N = 0") || !strings.Contains(post, "view storage:\n") || !strings.Contains(post, "  VB_10: 0 rows, 0 bytes\n") ||
		!strings.Contains(post, "  AuxA_7: R's index on (B)\n") || !strings.Contains(post, "  LA_4: R^B's index on (B)\n") {
		t.Errorf("Explain missing state after preprocessing:\n%s", post)
	}

	// Static engine omits update guarantees.
	s, _ := New(q, Options{Mode: viewtree.Static, Epsilon: 0.25})
	if strings.Contains(s.Explain(), "update") {
		t.Errorf("static Explain mentions updates:\n%s", s.Explain())
	}

	// The star's forest has no partition and no indicator: constant delay
	// and constant updates at any ε, not the class formula's N^(1−ε).
	star := query.MustParse("Q(A, B, C) = R(A, B), S(A, C)")
	for _, tc := range []struct {
		mode viewtree.Mode
		want string
	}{
		{viewtree.Dynamic, "guarantees: preprocessing O(N^1.00), delay O(1), amortized update O(1)\n"},
		{viewtree.Static, "guarantees: preprocessing O(N^1.00), delay O(1)\n"},
	} {
		e, err := New(star, Options{Mode: tc.mode, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Explain(); !strings.Contains(got, tc.want) || strings.Contains(got, "∃H") || strings.Contains(got, "light parts") {
			t.Errorf("%v star: Explain does not print %q, or prints a partition or an indicator:\n%s", tc.mode, tc.want, got)
		}
	}
}

// TestDoublingWithoutPartition: the star's forest has no partition, so a
// commit that crosses a doubling of M, or a halving, only moves M — no view
// reads θ — and recomputes nothing, while the result stays naive's and the
// invariants hold.
func TestDoublingWithoutPartition(t *testing.T) {
	q := query.MustParse("Q(A, B, C) = R(A, B), S(A, C)")
	db := randomDB(q, rand.New(rand.NewSource(7)), 40, 6)
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Forest().LightParts); n != 0 {
		t.Fatalf("the star's forest has %d light parts, want none", n)
	}
	fills := countJoinFills(t)
	check := func(label string) {
		t.Helper()
		sameResult(t, label, e, db)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if *fills != 0 {
			t.Fatalf("%s: %d join fills ran, want no recomputation", label, *fills)
		}
	}
	m, majors := e.ThresholdBase(), e.Stats().MajorRebalances
	for i := int64(0); e.ThresholdBase() == m; i++ {
		applyBoth(t, e, db, "R", tuple.Tuple{i % 5, 1000 + i}, 1)
	}
	if got := e.ThresholdBase(); got != 2*m {
		t.Fatalf("M = %d after the crossing, want %d", got, 2*m)
	}
	check("after the doubling")
	m = e.ThresholdBase()
	for e.ThresholdBase() == m {
		r := db["R"]
		t0, _ := r.At(r.First())
		applyBoth(t, e, db, "R", t0.Clone(), -1)
	}
	if got := e.ThresholdBase(); got >= m {
		t.Fatalf("M = %d after the crossing, want below %d", got, m)
	}
	check("after the halving")
	if got := e.Stats().MajorRebalances - majors; got != 2 {
		t.Fatalf("MajorRebalances rose by %d, want 2: the doubling and the halving", got)
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
