package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// multiTreeQuery is a hierarchical query whose skew-aware construction
// yields five main view trees plus three indicator pairs, with every
// relation reachable from at least four trees — the shape that exercises
// the parallel batch path (and the shape the parallel benchmarks use).
const multiTreeQuery = "Q(C, E) = R(A), S(A, B), T(A, B, C), U(A, D), V(A, D, E)"

// sharedViewsQuery builds four main trees and two indicator pairs whose 44
// view nodes are 24 views: every tree but the first is mostly copies, so
// nearly every path has edges that must not write.
const sharedViewsQuery = "Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)"

// TestJobGroups pins which trees run on one worker: indicator trees with
// the same view for a ∃-child — the first's edge writes it, the others' probe
// it — are one group, while trees that merely share views, whose edges
// neither read nor write them, stay apart. Trees are numbered main trees
// first, then All and L per indicator.
func TestJobGroups(t *testing.T) {
	for _, tc := range []struct {
		query string
		want  []int
	}{
		{"Q(A, C) = R(A, B), S(B, C)", []int{0, 1, 2, 3}},
		{multiTreeQuery, []int{0, 1, 2, 3, 4, 5, 6, 5, 8, 5, 10}}, // the three All trees
		{sharedViewsQuery, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"Q(A, B) = R(A, B), S(B)", []int{0}},
	} {
		e, err := New(query.MustParse(tc.query), Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(e.treeGroup, tc.want) {
			t.Errorf("%s: job groups %v, want %v", tc.query, e.treeGroup, tc.want)
		}
	}
}

// TestApplyBatchWorkersMatchSequential is the parallel sequential-
// equivalence property test: for every worker count, ApplyBatch must leave
// the engine in a state result- and invariant-equivalent to the same
// updates applied one by one with Update on a sequential engine. Run under
// -race this also checks the phase structure: parallel sections must never
// write a shared relation or another tree's views.
// forcePool lowers the pool handoff threshold to zero for the duration of
// a test, so even the smallest propagation phase exercises the workers.
func forcePool(t *testing.T) {
	t.Helper()
	old := parallelMinRows
	parallelMinRows = 0
	t.Cleanup(func() { parallelMinRows = old })
}

func TestApplyBatchWorkersMatchSequential(t *testing.T) {
	forcePool(t)
	queries := []string{
		"Q(A, C) = R(A, B), S(B, C)",
		"Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)",
		multiTreeQuery,
		sharedViewsQuery,
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		for _, workers := range []int{1, 2, 4, 8} {
			for _, eps := range []float64{0, 0.5} {
				label := fmt.Sprintf("%s workers=%d eps=%v", qs, workers, eps)
				rng := rand.New(rand.NewSource(int64(1000*workers) + int64(eps*10)))
				db := randomDB(q, rng, 30, 5)
				seq, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps})
				if err != nil {
					t.Fatal(err)
				}
				par, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if err := Preprocess(seq, db.Clone()); err != nil {
					t.Fatal(err)
				}
				if err := Preprocess(par, db.Clone()); err != nil {
					t.Fatal(err)
				}
				rels := q.RelationNames()
				for round := 0; round < 6; round++ {
					rel := rels[rng.Intn(len(rels))]
					vars := 0
					for _, a := range q.Atoms {
						if a.Rel == rel {
							vars = len(a.Vars)
						}
					}
					size := 50
					if round%3 == 2 {
						size = 150 // cross a rebalance threshold mid-run
					}
					rows, mults := randomBatch(rng, seq, rel, vars, size, 6+int64(round))
					for i := range rows {
						if err := seq.Update(rel, rows[i], mults[i]); err != nil {
							t.Fatalf("%s: sequential update: %v", label, err)
						}
					}
					if err := par.ApplyBatch(rel, rows, mults); err != nil {
						t.Fatalf("%s: parallel batch: %v", label, err)
					}
					sameEngines(t, fmt.Sprintf("%s round %d", label, round), seq, par)
					if seq.N() != par.N() {
						t.Fatalf("%s: N diverged: sequential %d, parallel %d", label, seq.N(), par.N())
					}
					if err := par.CheckInvariants(); err != nil {
						t.Fatalf("%s: parallel invariants: %v", label, err)
					}
				}
				par.Close()
			}
		}
	}
}

// TestApplyBatchWorkerCountsAgree cross-checks the full engine state across
// worker counts on the multi-tree queries: after identical batch streams, the
// engines at Workers 1, 2, 4, and 8 must agree on every materialized view, not
// only on the enumerated result. This pins the claim that parallel batch
// propagation is deterministic, not merely observably equivalent.
func TestApplyBatchWorkerCountsAgree(t *testing.T) {
	forcePool(t)
	for _, qs := range []string{multiTreeQuery, sharedViewsQuery} {
		workerCountsAgree(t, query.MustParse(qs))
	}
}

func workerCountsAgree(t *testing.T, q *query.Query) {
	rng := rand.New(rand.NewSource(77))
	db := randomDB(q, rng, 40, 5)
	counts := []int{1, 2, 4, 8}
	engines := make([]*Engine, len(counts))
	for i, w := range counts {
		e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := Preprocess(e, db.Clone()); err != nil {
			t.Fatal(err)
		}
		engines[i] = e
		defer e.Close()
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
		rows, mults := randomBatch(rng, engines[0], rel, vars, 80, 6)
		for _, e := range engines {
			if err := e.ApplyBatch(rel, rows, mults); err != nil {
				t.Fatalf("round %d workers=%d: %v", round, e.opts.Workers, err)
			}
		}
		base := engines[0]
		for i, e := range engines[1:] {
			ev := e.viewsByName()
			for name, v := range base.viewsByName() {
				ov := ev[name]
				if ov == nil || ov.Size() != v.Size() {
					t.Fatalf("round %d: view %s differs between workers=%d and workers=%d",
						round, name, counts[0], counts[i+1])
				}
				mismatch := false
				v.ForEach(func(tu tuple.Tuple, m int64) {
					if ov.Mult(tu) != m {
						mismatch = true
					}
				})
				if mismatch {
					t.Fatalf("round %d: view %s multiplicities differ between workers=%d and workers=%d",
						round, name, counts[0], counts[i+1])
				}
			}
		}
	}
}

// TestParallelPropagationAllocFree pins the per-worker allocation behavior:
// after warm-up, a parallel propagation phase (enqueue per-tree jobs, drain
// them on the pool, including the pool handoff itself) must not allocate.
// This is the batch analogue of the single-tuple zero-alloc pin in
// regression_test.go.
func TestParallelPropagationAllocFree(t *testing.T) {
	forcePool(t)
	q := query.MustParse(multiTreeQuery)
	rng := rand.New(rand.NewSource(55))
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, randomDB(q, rng, 50, 6)); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// A small delta on S whose A value exists in the database, so the
	// propagation exercises real sibling joins; the inverse delta restores
	// every view, keeping the measured loop state-neutral.
	var a0 tuple.Value
	e.BaseRelation("S").ForEachUntil(func(tu tuple.Tuple, _ int64) bool { a0 = tu[0]; return false })
	plus := e.ws0.getDelta()
	minus := e.ws0.getDelta()
	for i := int64(0); i < 4; i++ {
		plus.appendRow(tuple.Tuple{a0, 90_000 + i}, 1)
		minus.appendRow(tuple.Tuple{a0, 90_000 + i}, -1)
	}
	rt := e.relTab[e.relIdx["S"]-1].occs[0]
	phase := func(d *delta) {
		for _, lp := range rt.atomLeaves {
			e.enqueue(lp, d)
		}
		for _, ir := range rt.inds {
			for _, lp := range ir.allLeaves {
				e.enqueue(lp, d)
			}
		}
		e.runJobs()
	}
	if len(rt.atomLeaves)+len(rt.inds) < 2 {
		t.Fatalf("query no longer multi-tree: %d atom leaves, %d indicators", len(rt.atomLeaves), len(rt.inds))
	}
	// Warm up: spawn the pool, size every worker's scratch and delta pool.
	for i := 0; i < 5; i++ {
		phase(plus)
		phase(minus)
	}
	allocs := testing.AllocsPerRun(50, func() {
		phase(plus)
		phase(minus)
	})
	if allocs > 0 {
		t.Fatalf("parallel propagation phase allocated %.1f times per run; want 0", allocs)
	}
	e.ws0.putDelta(plus)
	e.ws0.putDelta(minus)
}

// TestParallelBatchWarmupDeterministic pins the fix for the stray
// pool-sizing allocs that kept the CI bench gate advisory: group→worker
// assignment is static (worker w drains groups w, w+W, …), so a single
// warm-up pass of a batch shape sizes exactly the scratch that every later
// identical batch uses, and repeated parallel ApplyBatch cycles are
// allocation-free — not just usually, but deterministically.
func TestParallelBatchWarmupDeterministic(t *testing.T) {
	forcePool(t)
	q := query.MustParse(multiTreeQuery)
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	if err := Preprocess(e, randomDB(q, rng, 400, 40)); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

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
		if err := e.ApplyBatch("T", rows, mults); err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyBatch("T", rows, negs); err != nil {
			t.Fatal(err)
		}
	}
	// One warm-up pass must suffice under deterministic assignment.
	cycle()
	if n := testing.AllocsPerRun(30, cycle); n != 0 {
		t.Errorf("warmed parallel batch cycle allocates %v per run, want deterministic 0", n)
	}
}

// TestEngineCloseLifecycle checks that Close is idempotent and that the
// engine keeps working (restarting its pool) after Close.
func TestEngineCloseLifecycle(t *testing.T) {
	forcePool(t)
	q := query.MustParse(multiTreeQuery)
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if err := Preprocess(e, randomDB(q, rng, 30, 5)); err != nil {
		t.Fatal(err)
	}
	batch := func() {
		rows, mults := randomBatch(rng, e, "T", 3, 40, 6)
		if err := e.ApplyBatch("T", rows, mults); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	if e.pool == nil {
		t.Fatal("parallel batch did not start the worker pool")
	}
	e.Close()
	e.Close() // idempotent
	if e.pool != nil {
		t.Fatal("Close left the pool in place")
	}
	batch() // restarts the pool on demand
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	e.Close()
}
