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
)

// paperQueries is the catalog of hierarchical queries used across the
// engine tests; it covers every example query in the paper.
var paperQueries = []string{
	"Q(A, C) = R(A, B), S(B, C)",                                     // Example 28
	"Q(A) = R(A, B), S(B)",                                           // Example 29
	"Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)",                   // Example 18
	"Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)", // Example 19
	"Q(A, B) = R(A, B), S(B)",                                        // q-hierarchical
	"Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)",    // Example 12
	"Q() = R(A, B), S(B)",                                            // Boolean
	"Q(B) = R(A, B), S(B, C)",                                        // free var in the middle
	"Q(A, C) = R(A, B), S(C, D)",                                     // Cartesian product
	"Q(Y0, Y1, Y2) = R0(X, Y0), R1(X, Y1), R2(X, Y2)",                // δ2 family
	"Q(A, B, C) = R(A, B), S(B, C)",                                  // full query
}

// randomDB fills a database for q with n tuples per relation over a small
// domain (to force joins and heavy keys).
func randomDB(q *query.Query, rng *rand.Rand, n int, domain int64) naive.Database {
	db := naive.Database{}
	for _, a := range q.Atoms {
		if _, ok := db[a.Rel]; ok {
			continue
		}
		r := relation.New(a.Rel, a.Vars)
		for i := 0; i < n; i++ {
			t := make(tuple.Tuple, len(a.Vars))
			for j := range t {
				t[j] = tuple.Value(rng.Int63n(domain))
			}
			r.Set(t, 1+rng.Int63n(3))
		}
		db[a.Rel] = r
	}
	return db
}

// sameResult compares the engine's enumerated result against ground truth.
func sameResult(t *testing.T, label string, e *Engine, db naive.Database) {
	t.Helper()
	want := naive.MustEval(e.Query(), db)
	got := e.ResultRelation()
	if got.Size() != want.Size() {
		t.Fatalf("%s: result size %d != %d\ngot:  %v\nwant: %v", label, got.Size(), want.Size(), got, want)
	}
	ok := true
	want.ForEach(func(tu tuple.Tuple, m int64) {
		if got.Mult(tu) != m {
			t.Logf("%s: tuple %v: got mult %d want %d", label, tu, got.Mult(tu), m)
			ok = false
		}
	})
	if !ok {
		t.Fatalf("%s: multiplicity mismatch", label)
	}
}

func TestStaticMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, qs := range paperQueries {
		q := query.MustParse(qs)
		for _, eps := range []float64{0, 0.5, 1} {
			for _, mode := range []viewtree.Mode{viewtree.Static, viewtree.Dynamic} {
				db := randomDB(q, rng, 60, 6)
				e, err := New(q, Options{Mode: mode, Epsilon: eps})
				if err != nil {
					t.Fatalf("%s: %v", qs, err)
				}
				if err := Preprocess(e, db); err != nil {
					t.Fatalf("%s: %v", qs, err)
				}
				label := fmt.Sprintf("%s mode=%v eps=%v", qs, mode, eps)
				sameResult(t, label, e, db)
				// Enumeration is repeatable.
				sameResult(t, label+" (second pass)", e, db)
			}
		}
	}
}

func TestPlainViewTreeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, qs := range paperQueries {
		q := query.MustParse(qs)
		db := randomDB(q, rng, 50, 5)
		e, err := New(q, Options{Mode: viewtree.Dynamic, PlainViewTree: true})
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if err := Preprocess(e, db); err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		sameResult(t, qs+" plain", e, db)
	}
}

func TestDistinctEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, qs := range paperQueries {
		q := query.MustParse(qs)
		db := randomDB(q, rng, 80, 4) // small domain → many heavy keys and overlaps
		e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := Preprocess(e, db); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		e.Enumerate(func(tu tuple.Tuple, m int64) bool {
			k := tu.String()
			if seen[k] {
				t.Fatalf("%s: duplicate tuple %v", qs, tu)
			}
			if m <= 0 {
				t.Fatalf("%s: non-positive multiplicity %d for %v", qs, m, tu)
			}
			seen[k] = true
			return true
		})
	}
}

func applyBoth(t *testing.T, e *Engine, db naive.Database, rel string, tu tuple.Tuple, m int64) {
	t.Helper()
	errE := e.Update(rel, tu, m)
	cur := db[rel].Mult(tu)
	if cur+m < 0 {
		if errE == nil {
			t.Fatalf("over-delete accepted: %s %v %d (have %d)", rel, tu, m, cur)
		}
		return
	}
	if errE != nil {
		t.Fatalf("update rejected: %s %v %d: %v", rel, tu, m, errE)
	}
	db[rel].MustAdd(tu, m)
}

// TestDynamicRandomUpdates checks single-tuple updates against naive
// re-evaluation, on every paper query and on the multi-tree query, whose
// relations each reach several indicators.
func TestDynamicRandomUpdates(t *testing.T) {
	for _, qs := range append([]string{multiTreeQuery}, paperQueries...) {
		q := query.MustParse(qs)
		for _, eps := range []float64{0, 0.5, 1} {
			rng := rand.New(rand.NewSource(404))
			db := randomDB(q, rng, 20, 5)
			e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if err := Preprocess(e, db); err != nil {
				t.Fatal(err)
			}
			names := q.RelationNames()
			for step := 0; step < 120; step++ {
				rel := names[rng.Intn(len(names))]
				schema := db[rel].Schema()
				tu := make(tuple.Tuple, len(schema))
				for j := range tu {
					tu[j] = tuple.Value(rng.Int63n(5))
				}
				m := int64(1 + rng.Intn(2))
				if rng.Intn(2) == 0 {
					m = -m
				}
				applyBoth(t, e, db, rel, tu, m)
				if step%10 == 9 {
					label := fmt.Sprintf("%s eps=%v step=%d", qs, eps, step)
					sameResult(t, label, e, db)
					if err := e.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
		}
	}
}

// Drain-then-refill exercises major rebalancing in both directions.
func TestDrainAndRefill(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	rng := rand.New(rand.NewSource(505))
	db := randomDB(q, rng, 40, 5)
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	// Delete everything.
	for _, rel := range q.RelationNames() {
		db[rel].Clone().ForEach(func(tp tuple.Tuple, m int64) {
			applyBoth(t, e, db, rel, tp, -m)
		})
	}
	if e.N() != 0 {
		t.Fatalf("N = %d after drain", e.N())
	}
	sameResult(t, "drained", e, db)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().MajorRebalances == 0 {
		t.Fatalf("expected major rebalances during drain")
	}
	// Refill.
	for i := 0; i < 60; i++ {
		rel := q.RelationNames()[rng.Intn(2)]
		tu := tuple.Tuple{tuple.Value(rng.Int63n(4)), tuple.Value(rng.Int63n(4))}
		applyBoth(t, e, db, rel, tu, 1)
	}
	sameResult(t, "refilled", e, db)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Skewed updates force minor rebalancing (a key crossing the heavy/light
// boundary repeatedly).
func TestMinorRebalancingBoundary(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	db := naive.Database{
		"R": relation.New("R", tuple.NewSchema("A", "B")),
		"S": relation.New("S", tuple.NewSchema("B", "C")),
	}
	// Moderate initial data so θ is meaningful.
	for i := int64(0); i < 30; i++ {
		db["R"].Set(tuple.Tuple{tuple.Value(i), tuple.Value(i % 5)}, 1)
		db["S"].Set(tuple.Tuple{tuple.Value(i % 5), tuple.Value(i)}, 1)
	}
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	// Grow one B-key's degree far past θ, then shrink it back.
	for i := int64(100); i < 140; i++ {
		applyBoth(t, e, db, "R", tuple.Tuple{tuple.Value(i), 0}, 1)
	}
	sameResult(t, "grown", e, db)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := int64(100); i < 140; i++ {
		applyBoth(t, e, db, "R", tuple.Tuple{tuple.Value(i), 0}, -1)
	}
	sameResult(t, "shrunk", e, db)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().MinorRebalances == 0 {
		t.Fatalf("expected minor rebalances")
	}
}

func TestRepeatedRelationSymbols(t *testing.T) {
	// Q(B, C) = R(A, B), R(A, C): hierarchical with a repeated symbol.
	q := query.MustParse("Q(B, C) = R(A, B), R(A, C)")
	if !q.IsHierarchical() {
		t.Fatal("test query not hierarchical")
	}
	rng := rand.New(rand.NewSource(606))
	db := naive.Database{"R": relation.New("R", tuple.NewSchema("A", "B"))}
	for i := 0; i < 25; i++ {
		db["R"].Set(tuple.Tuple{tuple.Value(rng.Int63n(5)), tuple.Value(rng.Int63n(5))}, 1+rng.Int63n(2))
	}
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "repeated static", e, db)
	for step := 0; step < 60; step++ {
		tu := tuple.Tuple{tuple.Value(rng.Int63n(5)), tuple.Value(rng.Int63n(5))}
		m := int64(1)
		if rng.Intn(2) == 0 {
			m = -1
		}
		applyBoth(t, e, db, "R", tu, m)
		if step%15 == 14 {
			sameResult(t, fmt.Sprintf("repeated step=%d", step), e, db)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := New(query.MustParse("Q() = R(A, B), S(B, C), T(A, C)"), Options{}); err == nil {
		t.Fatal("triangle accepted")
	}
	if _, err := New(query.MustParse("Q(A) = R(A)"), Options{Epsilon: 1.5}); err == nil {
		t.Fatal("epsilon out of range accepted")
	}
	q := query.MustParse("Q(A) = R(A, B), S(B)")
	e, _ := New(q, Options{Mode: viewtree.Static})
	if err := e.Update("R", tuple.Tuple{1, 2}, 1); err == nil {
		t.Fatal("static engine accepted update before preprocess")
	}
	if err := Preprocess(e, naive.Database{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Update("R", tuple.Tuple{1, 2}, 1); err == nil {
		t.Fatal("static engine accepted update")
	}
	if err := Preprocess(e, naive.Database{}); err == nil {
		t.Fatal("double preprocess accepted")
	}

	d, _ := New(q, Options{Mode: viewtree.Dynamic})
	if err := d.Update("R", tuple.Tuple{1, 2}, 1); err == nil {
		t.Fatal("update before preprocess accepted")
	}
	if err := Preprocess(d, naive.Database{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Update("Z", tuple.Tuple{1}, 1); err != nil {
		if err == nil {
			t.Fatal("unknown relation accepted")
		}
	}
	if err := d.Update("R", tuple.Tuple{1, 2}, -1); err == nil {
		t.Fatal("delete from empty accepted")
	}
	if err := d.Update("R", tuple.Tuple{1, 2}, 0); err != nil {
		t.Fatal("zero update rejected")
	}
}

func TestFromEmptyDatabase(t *testing.T) {
	// Preprocessing amounts to inserting N tuples into an empty database
	// (Section 1); the engine must support starting from nothing.
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, naive.Database{}); err != nil {
		t.Fatal(err)
	}
	db := naive.Database{
		"R": relation.New("R", tuple.NewSchema("A", "B")),
		"S": relation.New("S", tuple.NewSchema("B", "C")),
	}
	rng := rand.New(rand.NewSource(707))
	for i := 0; i < 150; i++ {
		rel := []string{"R", "S"}[rng.Intn(2)]
		tu := tuple.Tuple{tuple.Value(rng.Int63n(6)), tuple.Value(rng.Int63n(6))}
		applyBoth(t, e, db, rel, tu, 1)
	}
	sameResult(t, "built from empty", e, db)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Random hierarchical queries under random update streams: the broadest
// correctness net.
func TestRandomQueriesRandomUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	opt := query.GenOptions{MaxDepth: 3, MaxBranch: 2, ExtraAtomP: 0.3, FreeP: 0.5, MaxChainLen: 2}
	for trial := 0; trial < 25; trial++ {
		q := query.RandomHierarchical(rng, opt)
		eps := []float64{0, 0.5, 1}[rng.Intn(3)]
		db := randomDB(q, rng, 12, 4)
		e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if err := Preprocess(e, db); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sameResult(t, fmt.Sprintf("trial %d %s eps=%v", trial, q, eps), e, db)
		names := q.RelationNames()
		for step := 0; step < 40; step++ {
			rel := names[rng.Intn(len(names))]
			schema := db[rel].Schema()
			tu := make(tuple.Tuple, len(schema))
			for j := range tu {
				tu[j] = tuple.Value(rng.Int63n(4))
			}
			m := int64(1)
			if rng.Intn(2) == 0 {
				m = -1
			}
			applyBoth(t, e, db, rel, tu, m)
		}
		sameResult(t, fmt.Sprintf("trial %d post-updates %s eps=%v", trial, q, eps), e, db)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("trial %d %s: %v", trial, q, err)
		}
	}
}

func TestAccessors(t *testing.T) {
	q := query.MustParse("Q(A) = R(A, B), S(B)")
	e, _ := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	db := naive.Database{"R": relation.New("R", tuple.NewSchema("A", "B"))}
	db["R"].Set(tuple.Tuple{1, 2}, 1)
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	if e.N() != 1 || e.ThresholdBase() != 3 {
		t.Fatalf("N=%d M=%d", e.N(), e.ThresholdBase())
	}
	if e.Epsilon() != 0.5 || e.Mode() != viewtree.Dynamic {
		t.Fatalf("accessors wrong")
	}
	if e.BaseRelation("R").Size() != 1 || e.BaseRelation("Z") != nil {
		t.Fatalf("BaseRelation wrong")
	}
	if e.Theta() <= 1 {
		t.Fatalf("Theta = %v", e.Theta())
	}
	if e.Forest() == nil || e.Query().String() != q.String() {
		t.Fatalf("Forest/Query accessors wrong")
	}
}
