package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
	"ivmeps/internal/workload"
)

// expectView is the oracle's evaluation of a view: the conjunction of the
// leaves below it, over the engine's own leaf relations, projected on the
// view's schema — except that inside an All or L tree a view child counts
// for its expected support, every row at multiplicity 1, and only leaf
// children for their rows as stored.
func expectView(e *Engine, n *viewtree.Node) *relation.Relation {
	q := &query.Query{Name: n.Name, Free: n.Schema}
	db := naive.Database{}
	var gather func(v *viewtree.Node)
	gather = func(v *viewtree.Node) {
		for _, c := range v.Children {
			switch {
			case len(c.Children) == 0:
				db[c.Name] = e.rels[c.ID]
			case c.Exists:
				support := relation.New(c.Name, c.Schema)
				expectView(e, c).ForEach(func(tu tuple.Tuple, _ int64) { support.MustAdd(tu, 1) })
				db[c.Name] = support
			default:
				gather(c)
				continue
			}
			q.Atoms = append(q.Atoms, query.Atom{Rel: c.Name, Vars: c.Schema})
		}
	}
	gather(n)
	return naive.MustEval(q, db)
}

// checkViewsEqualLeafJoin compares every materialized view of e — main,
// All and L trees alike — with the oracle's evaluation of it: same rows,
// same multiplicities.
func checkViewsEqualLeafJoin(t *testing.T, label string, e *Engine) {
	t.Helper()
	trees := e.forest.Trees()
	for _, ind := range e.forest.Indicators {
		trees = append(trees, ind.All, ind.L)
	}
	for _, tree := range trees {
		walkNodes(tree, func(n *viewtree.Node) {
			if n.Kind != viewtree.View {
				return
			}
			want, got := expectView(e, n), e.rels[n.ID]
			same := got.Size() == want.Size()
			want.ForEach(func(tu tuple.Tuple, m int64) {
				same = same && got.Mult(tu) == m
			})
			if !same {
				t.Fatalf("%s: view %s is not the join of its leaves\ngot:  %v\nwant: %v", label, viewtree.Render(n), got, want)
			}
		})
	}
}

// TestViewsEqualLeafJoin checks the engine's compiled join against the
// oracle's, view by view rather than through the enumerated result: after
// Preprocess, after random updates, and after a forced major rebalance (which
// refills every view through its cached plan and every kept aggregate), in
// both modes, with and without each ablation.
func TestViewsEqualLeafJoin(t *testing.T) {
	var queries []*query.Query
	for _, qs := range []string{
		"Q(A, C) = R(A, B), S(B, C)",
		"Q(A) = R(A, B), S(B)",
		"Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)",
		"Q(B) = R(A, B), S(B, C)",
	} {
		queries = append(queries, query.MustParse(qs))
	}
	rng := rand.New(rand.NewSource(2222))
	gen := query.GenOptions{MaxDepth: 3, MaxBranch: 2, ExtraAtomP: 0.3, FreeP: 0.5, MaxChainLen: 2}
	for i := 0; i < 25; i++ {
		queries = append(queries, query.RandomHierarchical(rng, gen))
	}
	variants := []Options{
		{},
		{NoAuxViews: true},
		{NoPushdown: true},
		{NoAuxViews: true, NoPushdown: true},
		{PlainViewTree: true},
	}
	for _, q := range queries {
		names := q.RelationNames()
		for _, mode := range []viewtree.Mode{viewtree.Static, viewtree.Dynamic} {
			for _, eps := range []float64{0, 0.4, 1} {
				for vi, opts := range variants {
					opts.Mode, opts.Epsilon = mode, eps
					label := fmt.Sprintf("%s mode=%v eps=%v variant=%d", q, mode, eps, vi)
					db := randomDB(q, rng, 12, 4)
					e, err := New(q, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := Preprocess(e, db); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkViewsEqualLeafJoin(t, label, e)
					if mode == viewtree.Dynamic {
						for step := 0; step < 200; step++ {
							rel := names[rng.Intn(len(names))]
							tu := make(tuple.Tuple, len(db[rel].Schema()))
							for j := range tu {
								tu[j] = rng.Int63n(4)
							}
							applyBoth(t, e, db, rel, tu, 1-2*rng.Int63n(2))
						}
						checkViewsEqualLeafJoin(t, label+" post-updates", e)
					}
					e.majorRebalance()
					checkViewsEqualLeafJoin(t, label+" post-rebalance", e)
					sameResult(t, label+" post-rebalance", e, db)
				}
			}
		}
	}
}

// TestMajorRebalanceSteadyStateZeroAllocs pins a major rebalance at no
// allocation once every table has its size: the partitions, the kept
// aggregates and every view are refilled in place, through cached plans.
func TestMajorRebalanceSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		query string
		n     int
		opts  Options
		aggs  bool // some multi-child view must keep an aggregate
	}{
		{"Q(A, C) = R(A, B), S(B, C)", 20000, Options{Mode: viewtree.Dynamic, Epsilon: 0.5}, false},
		{"Q(A, B, C) = R(A, B), S(A, C)", 20000, Options{Mode: viewtree.Dynamic, Epsilon: 0.5}, false},
		{"Q(A, C) = R(A, B), S(B, C)", 2000, Options{Mode: viewtree.Dynamic, Epsilon: 0.5, NoAuxViews: true}, true},
	} {
		e, err := New(query.MustParse(tc.query), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := Preprocess(e, workload.TwoPath(rand.New(rand.NewSource(1)), tc.n, 1.15)); err != nil {
			t.Fatal(err)
		}
		kept := false
		for _, f := range e.fills {
			kept = kept || len(f) > 1
		}
		if kept != tc.aggs {
			t.Fatalf("%s %+v: kept aggregates = %v, want %v", tc.query, tc.opts, kept, tc.aggs)
		}
		e.majorRebalance() // warm-up: the refill recycles what Preprocess allocated
		if n := testing.AllocsPerRun(3, e.majorRebalance); n != 0 {
			t.Errorf("%s %+v: a steady-state major rebalance allocates %v times, want 0", tc.query, tc.opts, n)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPreprocessCopiesDB: Preprocess(db) copies every row out of db into the
// engine's own base relations — db is unchanged afterwards and shares no
// entry or tuple storage with the engine, so callers may reuse it (the
// preprocessing benchmarks do, without cloning).
func TestPreprocessCopiesDB(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	db := randomDB(q, rand.New(rand.NewSource(9)), 40, 6)
	before := db.Clone()
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	for name, r := range db {
		base := e.BaseRelation(name)
		if r.Size() != before[name].Size() || base.Size() != r.Size() {
			t.Fatalf("%s: %d rows in db, %d before Preprocess, %d in the engine", name, r.Size(), before[name].Size(), base.Size())
		}
		for en, own := r.First(), base.First(); en != relation.End; en, own = r.Next(en), base.Next(own) {
			tu, m := r.At(en)
			ownT, _ := base.At(own)
			if m != before[name].Mult(tu) {
				t.Fatalf("%s: Preprocess changed db's row %v", name, tu)
			}
			if &tu[0] == &ownT[0] {
				t.Fatalf("%s: the engine shares row %v with db", name, tu)
			}
		}
	}
}

// TestStorageFootprint pins the space side of the trade-off as exact counts:
// on two-path at ε = 0.5, the bytes every relation the engine keeps holds
// (Engine.Footprint, by capacity: base relations, light parts, views,
// indicators and push-down aggregates) against the tuples they store. A
// change to the storage layout or the growth policy moves both constants.
func TestStorageFootprint(t *testing.T) {
	e, err := New(query.MustParse("Q(A, C) = R(A, B), S(B, C)"), Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, workload.TwoPath(rand.New(rand.NewSource(1)), 4000, 1.15)); err != nil {
		t.Fatal(err)
	}
	bytes, tuples := e.Footprint()
	t.Logf("the relations hold %d bytes for %d tuples: %.2f bytes per tuple", bytes, tuples, float64(bytes)/float64(tuples))
	if bytes != 4516544 || tuples != 78638 {
		t.Errorf("%d bytes for %d tuples, want 4516544 bytes for 78638 tuples", bytes, tuples)
	}
}
