package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// TestFillsMatchRowByRow holds every relation materializeAll fills to a
// row-by-row MustAdd reference, in entries, multiplicities and insertion
// order: each view to its fill's plan run into a fresh relation by MustAdd,
// each light part to MustAdd of the base rows whose key degree is below θ;
// and each index-backed view, which has no fill, to the reference its fill
// would have — MustAdd of its leaf's rows onto its key — through its lookups
// (checkBacked).
// It checks after Preprocess, and after a forced major rebalance that
// follows churn — every row holding one of a few values deleted, then rows
// of fresh values inserted into the freed bucket ids of the seeds' indexes,
// so that their bucket order is no longer the keys' first-appearance order.
// The queries cover sums read off the index of a base relation, of a light
// part and of an ∃-child view, and off an index whose key order is not the
// view's column order. Preprocess runs on p ∈ {1, 2, 4} cores, with a helper
// worth 64 rows of a join, so that joins of more than 512 rows run on p
// helpers — those whose first 512 rows do not merge: the light join
// V(A, C) of the two-path query over values of A and C too wide to repeat.
func TestFillsMatchRowByRow(t *testing.T) {
	helped := helpersFrom(t, 64)
	var sums, lights, exists, perms, reordered, backed, backedLights int
	for _, c := range []struct {
		q    string
		p    int
		wide bool // values of A and C drawn from a million
	}{
		{"Q(A, C) = R(A, B), S(B, C)", 1, false},
		{"Q(A, C) = R(A, B), S(B, C)", 1, true},
		{"Q(A, C) = R(A, B), S(B, C)", 2, true},
		{"Q(A, C) = R(A, B), S(B, C)", 4, true},
		{"Q(A, B, C) = R(A, B), S(A, C)", 2, false},
		{"Q(A) = R(B), S(E, B, A)", 2, false},       // AllA(B) sums the ∃-child VE(B, A)
		{"Q(B, C) = R(E, D, B), S(B, C)", 4, false}, // VE(B, D) sums R through its index on (D, B)
	} {
		q := c.q
		rng := rand.New(rand.NewSource(49))
		e, err := New(query.MustParse(q), Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		row := func(br *relEntry, lo int) tuple.Tuple {
			r := make(tuple.Tuple, br.arity)
			for j, v := range br.occs[0].base.Schema() {
				r[j] = tuple.Value(lo + rng.Intn(1+rng.Intn(30)))
				if c.wide && v != "B" {
					r[j] = tuple.Value(lo + rng.Intn(1_000_000))
				}
			}
			return r
		}
		for i := range e.relTab {
			for range 400 {
				if err := e.LoadRows(e.relTab[i].name, row(&e.relTab[i], 0), []int64{1 + rng.Int63n(3)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.Preprocess(c.p, nil)
		checkFills(t, e, fmt.Sprintf("%s after Preprocess(%d)", q, c.p))

		var ops []BatchOp
		for i := range e.relTab {
			br := &e.relTab[i]
			br.occs[0].base.ForEach(func(tu tuple.Tuple, m int64) {
				if slices.ContainsFunc(tu, func(v tuple.Value) bool { return v < 3 }) {
					ops = append(ops, BatchOp{Rel: br.name, Row: tu.Clone(), Mult: -m})
				}
			})
		}
		if err := e.CommitBatch(ops); err != nil {
			t.Fatal(err)
		}
		ops = ops[:0]
		for i := range e.relTab {
			for range 100 {
				ops = append(ops, BatchOp{Rel: e.relTab[i].name, Row: row(&e.relTab[i], 100), Mult: 1})
			}
		}
		if err := e.CommitBatch(ops); err != nil {
			t.Fatal(err)
		}
		e.Rebalance()
		checkFills(t, e, q+" after churn and a major rebalance")

		for id := range e.info {
			if e.info[id].sumKey == nil {
				continue
			}
			backed++
			if e.info[id].node.Children[0].Kind == viewtree.LightAtom {
				backedLights++
			}
		}

		for _, fs := range e.fills {
			for _, f := range fs {
				if f.sum == nil {
					continue
				}
				sums++
				for _, pr := range e.partitions {
					if pr.p.Light() == f.seed.rel {
						lights++
					}
				}
				if f.seed.exists {
					exists++
				}
				if id := f.toDst.AppendTo(nil, tuple.Tuple{0, 1, 2}[:len(f.dst.Schema())]); !slices.IsSorted(id) {
					perms++
				}
				var byBucket, byFirst []string
				f.sum.ForEachKey(func(k tuple.Tuple, _ int) { byBucket = append(byBucket, fmt.Sprint(k)) })
				f.sum.Sums(nil, true, func(k tuple.Tuple, _ int64) { byFirst = append(byFirst, fmt.Sprint(k)) })
				if !slices.Equal(byBucket, byFirst) {
					reordered++
				}
			}
		}
	}
	t.Logf("fills summed off an index: %d, of a light part %d, of an ∃-child %d, permuting its key %d, in an order not the buckets' %d; joins on helpers %d; index-backed views %d, of a light part %d",
		sums, lights, exists, perms, reordered, *helped, backed, backedLights)
	if *helped == 0 {
		t.Error("no join's fill ran on helpers")
	}
	if backed == 0 || backedLights == 0 {
		t.Errorf("index-backed views: %d, of a light part %d; want each > 0", backed, backedLights)
	}
	if sums == 0 || lights == 0 || exists == 0 || perms == 0 || reordered == 0 {
		t.Errorf("fills summed off an index: %d, of a light part %d, of an ∃-child %d, permuting its key %d, in an order not the buckets' %d; want each > 0",
			sums, lights, exists, perms, reordered)
	}
}

// checkFills holds e's views and light parts to their row-by-row references
// (TestFillsMatchRowByRow).
func checkFills(t *testing.T, e *Engine, stage string) {
	t.Helper()
	checkBacked(t, e, stage)
	for _, fs := range e.fills {
		for _, f := range fs {
			ref := relation.New(f.dst.Name(), f.dst.Schema())
			f.plan.fill(e.ubind, f.seed, f.seed.rel.First(), -1, &planSink{view: ref})
			if got, want := entries(f.dst), entries(ref); !slices.Equal(got, want) {
				t.Fatalf("%s: %s (summed off an index: %v) holds\n%v\nwant\n%v", stage, f.dst.Name(), f.sum != nil, got, want)
			}
			e.enumIndexes(func(r *relation.Relation, key tuple.Schema) {
				if r != f.dst {
					return
				}
				if got, want := buckets(r, r.Index(key)), buckets(ref, ref.EnsureIndex(key)); !slices.Equal(got, want) {
					t.Fatalf("%s: %s's buckets on %v hold\n%v\nwant\n%v", stage, r.Name(), key, got, want)
				}
			})
		}
	}
	theta := e.Theta()
	for _, pr := range e.partitions {
		p := pr.p
		ref := relation.New(p.Light().Name(), p.Light().Schema())
		var key tuple.Tuple
		p.Relation().ForEach(func(tu tuple.Tuple, m int64) {
			if key = p.AppendPartKey(key[:0], tu); float64(p.Degree(key)) < theta {
				ref.MustAdd(tu, m)
			}
		})
		if got, want := entries(p.Light()), entries(ref); !slices.Equal(got, want) {
			t.Fatalf("%s: light part %s holds\n%v\nwant\n%v", stage, p.Light().Name(), got, want)
		}
	}
}

// buckets lists the buckets of r's index ix, by key, each with its entries
// in bucket order.
func buckets(r *relation.Relation, ix *relation.Index) []string {
	var out []string
	ix.ForEachKey(func(key tuple.Tuple, _ int) {
		b := fmt.Sprint(key, ":")
		for id := ix.First(key); id != relation.End; id = ix.Next(id) {
			t, m := r.At(id)
			b += fmt.Sprint(" ", t, ":", m)
		}
		out = append(out, b)
	})
	slices.Sort(out)
	return out
}
