package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
	"ivmeps/internal/workload"
)

// TestSealedEdgesMatchRowByRow runs a stream shaped like the lib-grow
// benchmark — the skewed two-path join at ε = 0.5, N grown 5× and shrunk
// back twice in 500-op commits — through two engines, one of which keeps
// every edge on the row-by-row path. After every commit both must hold the
// same rows in every view, in the same order, report the same Stats, and
// have published the same commit delta. The stream must seal edges and cross
// at least two major rebalances.
func TestSealedEdgesMatchRowByRow(t *testing.T) {
	const n, grow, ops = 1000, 5, 500
	rng := rand.New(rand.NewSource(39))
	db := workload.TwoPath(rng, n, 1.15)
	var engines [2]*Engine
	var published [2][]string
	for i := range engines {
		e, err := New(query.MustParse("Q(A, C) = R(A, B), S(B, C)"), Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := Preprocess(e, db); err != nil {
			t.Fatal(err)
		}
		var held Snapshot
		err = e.SubscribeCommits(sinkFunc(func(cd *CommitDelta) {
			published[i] = append(published[i], fmt.Sprint(cd.Epoch, cd.Views))
		}), &held)
		if err != nil {
			t.Fatal(err)
		}
		held.Close()
		engines[i] = e
	}
	sealed := rowByRowFor(t, engines[1])

	live := map[string][]tuple.Tuple{}
	size := 0
	for name, r := range db {
		r.ForEach(func(tu tuple.Tuple, _ int64) { live[name] = append(live[name], tu.Clone()) })
		size += r.Size()
	}
	zb := workload.NewZipf(rng, 1.15, n)
	next := func(insert bool) BatchOp {
		rel := []string{"R", "S"}[rng.Intn(2)]
		if !insert {
			rows := live[rel]
			i := rng.Intn(len(rows))
			tu := rows[i]
			rows[i] = rows[len(rows)-1]
			live[rel] = rows[:len(rows)-1]
			db[rel].MustAdd(tu, -1)
			return BatchOp{Rel: rel, Row: tu, Mult: -1}
		}
		for {
			tu := tuple.Tuple{rng.Int63n(n), zb.Draw()}
			if rel == "S" {
				tu = tuple.Tuple{zb.Draw(), rng.Int63n(n)}
			}
			if db[rel].Mult(tu) == 0 {
				db[rel].MustAdd(tu, 1)
				live[rel] = append(live[rel], tu)
				return BatchOp{Rel: rel, Row: tu, Mult: 1}
			}
		}
	}
	commit := func(insert bool) {
		batch := make([]BatchOp, ops)
		for i := range batch {
			batch[i] = next(insert)
		}
		for _, e := range engines {
			if err := e.CommitBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		a, b := engines[0], engines[1]
		epoch := a.Epoch()
		if sa, sb := a.Stats(), b.Stats(); sa != sb {
			t.Fatalf("epoch %d: Stats %+v, row by row %+v", epoch, sa, sb)
		}
		if pa, pb := published[0][len(published[0])-1], published[1][len(published[1])-1]; pa != pb {
			t.Fatalf("epoch %d: the commit deltas differ:\n%.300s\nrow by row:\n%.300s", epoch, pa, pb)
		}
		for id, ra := range a.rels {
			if d := sameRows(ra, b.rels[id]); d != "" {
				t.Fatalf("epoch %d: view %s: %s", epoch, ra.Name(), d)
			}
		}
	}
	for cycle := 0; cycle < 2; cycle++ {
		for ; size < grow*2*n; size += ops {
			commit(true)
		}
		for ; size > 2*n; size -= ops {
			commit(false)
		}
	}

	if err := engines[0].CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after the stream", engines[0], db)
	s := engines[0].Stats()
	t.Logf("%d commits, %d sealed edges, %d major rebalances, %d view writes", s.Batches, *sealed, s.MajorRebalances, s.DeltasApplied)
	if *sealed == 0 || s.MajorRebalances < 2 {
		t.Errorf("the stream sealed %d edges and crossed %d major rebalances, want some and at least 2", *sealed, s.MajorRebalances)
	}
}

// sameRows reports the first way got's rows differ from want's — their
// tuples and multiplicities in insertion order, which is enumeration order —
// or "".
func sameRows(got, want *relation.Relation) string {
	if got.Size() != want.Size() {
		return fmt.Sprintf("%d rows, row by row %d", got.Size(), want.Size())
	}
	g, w := got.First(), want.First()
	for ; g != relation.End && w != relation.End; g, w = got.Next(g), want.Next(w) {
		gt, gm := got.At(g)
		wt, wm := want.At(w)
		if !gt.Equal(wt) || gm != wm {
			return fmt.Sprintf("row %v→%d, row by row %v→%d", gt, gm, wt, wm)
		}
	}
	if g != w {
		return "the insertion orders differ in length"
	}
	return ""
}
