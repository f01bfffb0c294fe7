package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// mallocsOf returns the heap allocations the process made while f ran.
func mallocsOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEnumerateZeroAllocsPerRow pins the read side's allocation budget: an
// enumeration allocates when it opens (the iterator tree, a few objects per
// heavy key) and never per row. A full pass minus a pass stopped after its
// first row, per row, is below 0.01, and Next on an open iterator is 0 —
// with heavy keys present (two-path at ε = 0.5), on a q-hierarchical star
// and on a free-connex query, on the live relations and on a snapshot.
func TestEnumerateZeroAllocsPerRow(t *testing.T) {
	cases := []struct {
		query     string
		db        func(q *query.Query) naive.Database
		indicator bool
	}{
		{"Q(A, C) = R(A, B), S(B, C)", func(*query.Query) naive.Database { return zipfTwoPath(77, 1000) }, true},
		{"Q(A, B, C) = R(A, B), S(A, C)", func(q *query.Query) naive.Database {
			return randomDB(q, rand.New(rand.NewSource(3)), 3000, 300)
		}, false},
		{"Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)", func(q *query.Query) naive.Database {
			return randomDB(q, rand.New(rand.NewSource(5)), 2000, 40)
		}, false},
	}
	for _, tc := range cases {
		q := query.MustParse(tc.query)
		e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := Preprocess(e, tc.db(q)); err != nil {
			t.Fatal(err)
		}
		if tc.indicator && len(e.Forest().Indicators) == 0 {
			t.Fatalf("%s: no indicator in the forest, so no heavy keys to enumerate", tc.query)
		}
		snap := e.Snapshot()
		defer snap.Close()
		for _, src := range []struct {
			name   string
			result func() *Iterator
		}{{"live", e.Result}, {"snapshot", snap.Result}} {
			pass := func(limit int) (rows int) {
				it := src.result()
				defer it.Close()
				for rows < limit {
					if _, _, ok := it.Next(); !ok {
						break
					}
					rows++
				}
				return rows
			}
			rows := pass(1 << 30) // warm: lazily built indexes, the runtime's own caches
			if rows < 5000 {
				t.Fatalf("%s %s: only %d rows, too few to resolve 0.01 allocations per row", tc.query, src.name, rows)
			}
			full := mallocsOf(func() { pass(1 << 30) })
			open := mallocsOf(func() { pass(1) })
			perRow := (float64(full) - float64(open)) / float64(rows)
			t.Logf("%s %s: %d rows, %d allocations to open, %d for a full pass: %.5f per row", tc.query, src.name, rows, open, full, perRow)
			if perRow >= 0.01 {
				t.Errorf("%s %s: %.4f allocations per row, want < 0.01", tc.query, src.name, perRow)
			}
			it := src.result()
			if a := testing.AllocsPerRun(1000, func() { it.Next() }); a != 0 {
				t.Errorf("%s %s: Iterator.Next allocates %.2f times per call, want 0", tc.query, src.name, a)
			}
			it.Close()
		}
	}
}

// TestEnumerationScratchAliasing checks enumeration ≡ the join where the
// per-node scratch could alias if the per-node rule were wrong: a grounded
// node under a product that re-opens it (bound B below free A, beside T),
// Union operands that share free variables, and a two-component product.
// Every instance is also enumerated with a second iterator over the same
// snapshot opened and drained between every two rows of the first, so both
// share one context's bindings and scratch.
func TestEnumerationScratchAliasing(t *testing.T) {
	queries := []string{
		"Q(A, C, E) = R(A, B, D), S(A, B, C), T(A, E)",
		"Q(A, C, D) = R(A, B), S(B, C), T(B, D)",
		"Q(A, C, E) = R(A, B), S(B, C), U(E)",
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		for _, eps := range []float64{0, 0.2, 0.3, 0.5, 1} {
			for seed := int64(0); seed < 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				mode := []viewtree.Mode{viewtree.Static, viewtree.Dynamic}[seed%2]
				db := randomDB(q, rng, 10+rng.Intn(120), 2+rng.Int63n(3))
				e, err := New(q, Options{Mode: mode, Epsilon: eps})
				if err != nil {
					t.Fatal(err)
				}
				if err := Preprocess(e, db); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s %v eps=%v seed=%d", qs, mode, eps, seed)
				want := resultMap(func(yield func(tuple.Tuple, int64) bool) {
					naive.MustEval(q, db).ForEachUntil(yield)
				})
				sameResultMap(t, label+" live", resultMap(e.Enumerate), want)
				wantTotal := int64(0)
				for _, m := range want {
					wantTotal += m
				}

				snap := e.Snapshot()
				got := map[string]int64{}
				outer := snap.Result()
				for n := 0; ; n++ {
					tu, m, ok := outer.Next()
					if !ok {
						break
					}
					if _, dup := got[fmt.Sprint(tu)]; dup {
						t.Fatalf("%s: outer iterator yielded %v twice", label, tu)
					}
					got[fmt.Sprint(tu)] = m
					if n%2 == 1 {
						rows, total := 0, int64(0)
						snap.Enumerate(func(_ tuple.Tuple, m int64) bool {
							rows++
							total += m
							return true
						})
						if rows != len(want) || total != wantTotal {
							t.Fatalf("%s: inner pass after outer row %d: %d rows of total multiplicity %d, want %d of %d", label, n, rows, total, len(want), wantTotal)
						}
					}
				}
				sameResultMap(t, label+" outer", got, want)
				snap.Close()
			}
		}
	}
}
