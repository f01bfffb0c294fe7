package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// multiTreeQuery is a hierarchical query whose skew-aware construction
// yields five main view trees plus three indicator pairs, with every
// relation reachable from at least four trees — the shape that exercises
// the batch path across many trees (and the shape the multi-tree
// benchmarks use).
const multiTreeQuery = "Q(C, E) = R(A), S(A, B), T(A, B, C), U(A, D), V(A, D, E)"

// sharedViewsQuery builds four main trees and two indicator pairs whose 44
// view nodes are 24 views: every tree but the first is mostly copies, so
// nearly every path has edges that must not write.
const sharedViewsQuery = "Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)"

// TestSharedViewWriter pins which node writes each shared view class
// (Engine.writer): the class's first ∃-child — whose edge must bring the
// view up to date before a later ∃-child's edge probes it, as AllC_11 probes
// AllC_1's view in the multi-tree query — and, failing one, its canonical
// node. Only classes whose writer is not the canonical node are listed;
// every other shared class is written through its canonical node.
func TestSharedViewWriter(t *testing.T) {
	for _, tc := range []struct {
		query  string
		shared int               // view classes with more than one node
		want   map[string]string // canonical node → writer, where they differ
	}{
		{"Q(A, C) = R(A, B), S(B, C)", 2, map[string]string{
			"AuxA_7": "AllA_1", "AuxC_8": "AllC_2",
		}},
		{multiTreeQuery, 10, map[string]string{
			"AuxC_15_c26": "AllC_1", "AuxE_22_c29": "AllE_3",
		}},
		{sharedViewsQuery, 14, map[string]string{
			"AuxC_8_c26": "AllC_1", "VD_7_c9_c27": "AllD_2",
			"AuxF_20_c30": "AllF_13", "VG_19_c21_c31": "AllG_14",
			"VG_23_c39": "LG_17", "VD_11_c43": "LD_5",
		}},
		{"Q(A, B) = R(A, B), S(B)", 0, map[string]string{}},
	} {
		e, err := New(query.MustParse(tc.query), Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		members := map[*viewtree.Node]int{}
		for id := range e.info {
			if n := e.info[id].node; n.Kind == viewtree.View {
				members[n.Canon]++
			}
		}
		shared, got := 0, map[string]string{}
		for canon, k := range members {
			w := e.writer[canon.ID]
			if w.Canon != canon {
				t.Errorf("%s: writer %s of class %s is not a member", tc.query, w.Name, canon.Name)
			}
			if k > 1 {
				shared++
			}
			if w != canon {
				got[canon.Name] = w.Name
			}
		}
		if shared != tc.shared || fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: %d shared classes, writers %v; want %d, %v", tc.query, shared, got, tc.shared, tc.want)
		}
	}
}

// TestMultiTreeBatchCycleAllocFree pins the batch analogue of the
// single-tuple zero-alloc pin in regression_test.go: on a default-options
// engine over the multi-tree query, one warm-up pass of an insert/delete
// batch cycle sizes every delta pool and grouping table the cycle
// uses, and every later identical cycle allocates nothing.
func TestMultiTreeBatchCycleAllocFree(t *testing.T) {
	q := query.MustParse(multiTreeQuery)
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	if err := Preprocess(e, randomDB(q, rng, 400, 40)); err != nil {
		t.Fatal(err)
	}

	const batchRows = 256
	rows := make([]tuple.Tuple, batchRows)
	buf := make(tuple.Tuple, 3*batchRows)
	mults := make([]int64, batchRows)
	negs := make([]int64, batchRows)
	for i := range rows {
		rows[i] = buf[3*i : 3*i+3]
		rows[i][0] = int64(rng.Intn(40))
		rows[i][1] = rng.Int63n(400)
		rows[i][2] = 1_000_000 + int64(i)
		mults[i] = 1
		negs[i] = -1
	}
	cycle := func() {
		if err := applyBatch(e, "T", rows, mults); err != nil {
			t.Fatal(err)
		}
		if err := applyBatch(e, "T", rows, negs); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(30, cycle); n != 0 {
		t.Errorf("warmed batch cycle allocates %v per run, want 0", n)
	}
}
