package core

import (
	"math/rand"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
	"ivmeps/internal/workload"
)

// viewDeltasExact is Stats.DeltasApplied after TestViewDeltasExact's run: the
// paper's update cost (Proposition 27) as a count of view writes. It moves
// only when propagation writes more or fewer rows — CHANGES.md records every
// value it has had and why.
const viewDeltasExact = 90664

// TestViewDeltasExact pins the number of view writes a fixed run causes —
// single-tuple updates, a batch, a major rebalance, more updates, on the
// skewed two-path join — and the number of relations behind the forest's
// views. With -v it prints the count per view.
func TestViewDeltasExact(t *testing.T) {
	const n = 5000
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	rng := rand.New(rand.NewSource(1))
	db := workload.TwoPath(rng, n, 1.15)
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	writes := traceViewWrites(t)

	// Half the ops delete a stored tuple, half insert one whose B is drawn
	// from the data's own distribution; db mirrors the engine.
	zb := workload.NewZipf(rng, 1.15, n)
	live := map[string][]tuple.Tuple{}
	for name, r := range db {
		r.ForEach(func(tu tuple.Tuple, _ int64) { live[name] = append(live[name], tu.Clone()) })
	}
	next := func() BatchOp {
		for {
			rel, bPos := "R", 1
			if rng.Intn(2) == 0 {
				rel, bPos = "S", 0
			}
			if rows := live[rel]; rng.Intn(2) == 0 {
				i := rng.Intn(len(rows))
				tu := rows[i]
				rows[i] = rows[len(rows)-1]
				live[rel] = rows[:len(rows)-1]
				db[rel].MustAdd(tu, -1)
				return BatchOp{Rel: rel, Row: tu, Mult: -1}
			}
			tu := tuple.Tuple{rng.Int63n(n), rng.Int63n(n)}
			tu[bPos] = zb.Draw()
			if db[rel].Mult(tu) == 0 {
				db[rel].MustAdd(tu, 1)
				live[rel] = append(live[rel], tu)
				return BatchOp{Rel: rel, Row: tu, Mult: 1}
			}
		}
	}
	single := func(count int) {
		for i := 0; i < count; i++ {
			op := next()
			if err := e.Update(op.Rel, op.Row, op.Mult); err != nil {
				t.Fatal(err)
			}
		}
	}
	single(4000)
	batch := make([]BatchOp, 500)
	for i := range batch {
		batch[i] = next()
	}
	if err := e.CommitBatch(batch); err != nil {
		t.Fatal(err)
	}
	e.Rebalance()
	single(1000)

	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after the run", e, db)
	got := e.Stats().DeltasApplied
	var traced int64
	for _, rows := range writes {
		traced += rows
	}
	t.Logf("view writes: %d over %d updates\n%s", got, e.Stats().Updates, viewWriteTable(writes))
	if traced != got {
		t.Errorf("the per-view counts sum to %d, DeltasApplied is %d", traced, got)
	}
	if got != viewDeltasExact {
		t.Errorf("DeltasApplied = %d, recorded %d", got, viewDeltasExact)
	}

	views, distinct := 0, map[*relation.Relation]bool{}
	for id := range e.info {
		if e.info[id].node.Kind == viewtree.View {
			views++
			distinct[e.rels[id]] = true
		}
	}
	if views != 10 || len(distinct) != 8 {
		t.Errorf("%d relations behind %d view nodes, want 8 behind 10", len(distinct), views)
	}
}
