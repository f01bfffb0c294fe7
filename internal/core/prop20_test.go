package core

import (
	"math/rand"
	"testing"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// TestProposition20TreeEquivalence checks Proposition 20 directly: for the
// view trees {T1..Tk} built by τ, the query defined by the conjunction of
// each tree's leaf atoms, evaluated over the engine's materialized leaf
// relations (base relations, light parts, heavy indicators), unions —
// as a SET — to the query result. (The union may overlap, which is why
// enumeration needs the Union algorithm; set-equality is the proposition's
// statement.)
func TestProposition20TreeEquivalence(t *testing.T) {
	queries := []string{
		"Q(A, C) = R(A, B), S(B, C)",
		"Q(A) = R(A, B), S(B)",
		"Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)",
		"Q(B) = R(A, B), S(B, C)",
	}
	rng := rand.New(rand.NewSource(20))
	for _, qs := range queries {
		q := query.MustParse(qs)
		for _, eps := range []float64{0, 0.4, 1} {
			db := randomDB(q, rng, 30, 5)
			e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if err := Preprocess(e, db); err != nil {
				t.Fatal(err)
			}
			want := naive.MustEval(q, db)

			// Evaluate each tree's leaf conjunction over the engine's
			// materialized leaves and union the supports.
			union := relation.New("union", q.Free)
			for _, comp := range e.forest.Components {
				for _, tree := range comp.Trees {
					leafQ := &query.Query{Name: "T", Free: q.Free.Intersect(comp.Query.Vars())}
					leafDB := naive.Database{}
					var walk func(n *viewtree.Node)
					walk = func(n *viewtree.Node) {
						if len(n.Children) == 0 {
							leafQ.Atoms = append(leafQ.Atoms, query.Atom{Rel: n.Name, Vars: n.Schema})
							leafDB[n.Name] = e.rels[n.ID]
						}
						for _, c := range n.Children {
							walk(c)
						}
					}
					walk(tree)
					res := naive.MustEval(leafQ, leafDB)
					res.ForEach(func(tu tuple.Tuple, m int64) {
						// Component results combine by Cartesian product;
						// for this per-component check, record support of
						// component-projected tuples only when the query is
						// connected.
						if len(e.forest.Components) == 1 {
							if union.Mult(tu) == 0 {
								union.MustAdd(tu, 1)
							}
						}
					})
				}
			}
			if len(e.forest.Components) != 1 {
				continue // the product step is exercised by the golden tests
			}
			if union.Size() != want.Size() {
				t.Fatalf("%s eps=%v: union support %d != query support %d", qs, eps, union.Size(), want.Size())
			}
			missing := false
			want.ForEach(func(tu tuple.Tuple, m int64) {
				if union.Mult(tu) == 0 {
					missing = true
				}
			})
			if missing {
				t.Fatalf("%s eps=%v: union misses query tuples (Prop 20 violated)", qs, eps)
			}
		}
	}
}
