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

// crossingStream drives e, and its mirror db, through 500-op commits that
// grow N from its built size to grow× it and then shrink it to shrink× it,
// inserting fresh rows with a Zipf-drawn key and deleting stored rows at
// random, into the query's relations in turn. after runs after every commit
// with whether the commit moved M.
func crossingStream(t *testing.T, e *Engine, db naive.Database, seed int64, grow, shrink float64, after func(i int, crossed bool)) {
	t.Helper()
	const batch = 500
	rng := rand.New(rand.NewSource(seed))
	zipf := workload.NewZipf(rng, 1.15, 1000)
	names := e.Query().RelationNames()
	n0 := e.N()
	fresh := int64(1_000_000)
	for i, growing := 0, true; growing || float64(e.N()) > shrink*float64(n0); i++ {
		growing = growing && float64(e.N()) < grow*float64(n0)
		ops := make([]BatchOp, 0, batch)
		for len(ops) < batch {
			rel := names[len(ops)%len(names)]
			r := db[rel]
			if growing == (rng.Intn(5) > 0) || r.Size() == 0 {
				row := make(tuple.Tuple, len(r.Schema()))
				for j := range row {
					row[j] = fresh
					fresh++
				}
				row[0] = zipf.Draw() // the partition key of every query below
				r.MustAdd(row, 1)
				ops = append(ops, BatchOp{Rel: rel, Row: row, Mult: 1})
				continue
			}
			// A stored row at random, deleted whole.
			id := r.First()
			for k := rng.Intn(r.Size()); k > 0; k-- {
				id = r.Next(id)
			}
			row, m := r.At(id)
			row = row.Clone()
			r.MustAdd(row, -m)
			ops = append(ops, BatchOp{Rel: rel, Row: row, Mult: -m})
		}
		m := e.ThresholdBase()
		if err := e.CommitBatch(ops); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		after(i, e.ThresholdBase() != m)
	}
}

// crossingEngine builds q at ε = ½ over n rows per relation whose first
// variable is Zipf-drawn, and returns the engine and a mirror of its data.
func crossingEngine(t *testing.T, qs string, n int) (*Engine, naive.Database) {
	t.Helper()
	q := query.MustParse(qs)
	rng := rand.New(rand.NewSource(int64(n)))
	zipf := workload.NewZipf(rng, 1.15, 1000)
	db := naive.Database{}
	for _, a := range q.Atoms {
		if db[a.Rel] != nil {
			continue
		}
		r := relation.New(a.Rel, a.Vars)
		for r.Size() < n {
			row := tuple.Tuple{zipf.Draw()}
			for len(row) < len(a.Vars) {
				row = append(row, rng.Int63n(int64(n)))
			}
			r.Set(row, 1)
		}
		db[a.Rel] = r
	}
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db.Clone()); err != nil {
		t.Fatal(err)
	}
	return e, db
}

// TestCrossingCommitWritesNoView: on a forest with a partition, a commit that
// moves M writes the base relations and nothing else — every view is refilled
// from them — so Stats.ViewDeltas does not move across it, while the result
// stays naive's and the invariants hold after every commit of a stream that
// crosses doublings and halvings. With -v it prints the rows the refill left
// in the views at each crossing.
func TestCrossingCommitWritesNoView(t *testing.T) {
	// Two-path, partitioned on B: the relations' first variable is A, so
	// reverse S's to draw B from the Zipf.
	e, db := crossingEngine(t, "Q(A, C) = R(B, A), S(B, C)", 400)
	crossings, written := 0, int64(0)
	writes := e.Stats().ViewDeltas
	crossingStream(t, e, db, 1, 4.5, 0.5, func(i int, crossed bool) {
		label := fmt.Sprintf("commit %d (N=%d, M=%d)", i, e.N(), e.ThresholdBase())
		sameResult(t, label, e, db)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		d := e.Stats().ViewDeltas - writes
		writes += d
		if !crossed {
			written += d
			return
		}
		crossings++
		if d != 0 {
			t.Fatalf("%s moved M and wrote %d view rows, want none: the refill rewrites every view", label, d)
		}
		rows := 0
		for _, v := range e.viewsByName() {
			rows += v.Size()
		}
		t.Logf("%s: the refill left %d view rows", label, rows)
	})
	if crossings < 4 || written == 0 {
		t.Fatalf("%d crossing commits, %d view rows written by the others: the stream must cross both ways and propagate between", crossings, written)
	}
	if e.Stats().MinorRebalances == 0 {
		t.Fatal("no minor rebalance: the stream must move keys between the parts")
	}
}

// TestCrossingCommitPropagatesWithoutPartition: the star's forest has no
// partition, so a commit that moves M refills nothing (rebalanceBatchLocked)
// and must still propagate its delta.
func TestCrossingCommitPropagatesWithoutPartition(t *testing.T) {
	e, db := crossingEngine(t, "Q(A, B, C) = R(A, B), S(A, C)", 400)
	crossings := 0
	writes := e.Stats().ViewDeltas
	crossingStream(t, e, db, 2, 4.5, 0.5, func(i int, crossed bool) {
		label := fmt.Sprintf("commit %d (N=%d, M=%d)", i, e.N(), e.ThresholdBase())
		sameResult(t, label, e, db)
		d := e.Stats().ViewDeltas - writes
		writes += d
		if crossed {
			crossings++
			if d == 0 {
				t.Fatalf("%s moved M on the star and wrote no view row", label)
			}
		}
	})
	if crossings < 4 {
		t.Fatalf("%d crossing commits, want both ways", crossings)
	}
}

// TestCrossingCommitWatched: a watcher's folded commit deltas equal the root
// views at every commit of a crossing stream — a crossing commit's delta is
// the refill's diff against the roots before the commit, which no
// propagation touched. T(D)'s tree is its atom, whose delta no refill
// captures.
func TestCrossingCommitWatched(t *testing.T) {
	e, db := crossingEngine(t, "Q(A, C, D) = R(B, A), S(B, C), T(D)", 300)
	folded := map[string]map[string]int64{}
	var anchor Snapshot
	if err := e.SubscribeCommits(sinkFunc(func(cd *CommitDelta) {
		for _, v := range cd.Views {
			for j, row := range v.Rows {
				folded[v.View][fmt.Sprint(tuple.Tuple(row))] += v.Mults[j]
			}
		}
	}), &anchor); err != nil {
		t.Fatal(err)
	}
	for _, name := range e.RootViews() {
		folded[name] = map[string]int64{}
		rows, _ := anchor.View(name)
		for row, m := range rows {
			folded[name][fmt.Sprint(row)] = m
		}
	}
	anchor.Close()
	crossings := 0
	crossingStream(t, e, db, 3, 4.5, 0.5, func(i int, crossed bool) {
		if crossed {
			crossings++
		}
		s := e.Snapshot()
		defer s.Close()
		for _, name := range e.RootViews() {
			want := map[string]int64{}
			rows, _ := s.View(name)
			for row, m := range rows {
				want[fmt.Sprint(row)] = m
			}
			for row, m := range folded[name] {
				if m == 0 {
					delete(folded[name], row)
				} else if want[row] != m {
					t.Fatalf("commit %d (crossed %v): view %s row %s: folded %d, snapshot %d", i, crossed, name, row, m, want[row])
				}
			}
			if len(folded[name]) != len(want) {
				t.Fatalf("commit %d (crossed %v): view %s: folded %d rows, snapshot %d", i, crossed, name, len(folded[name]), len(want))
			}
		}
	})
	if crossings < 4 {
		t.Fatalf("%d crossing commits, want both ways", crossings)
	}
}

// TestKeyMovesHeavyWhileDeleting: a light key that one commit drives past
// 3⁄2·θ, while the commit also deletes some of its tuples, leaves the light
// part with the rows the light part held before — its own rows never enter
// it — and the views equal the join of their leaves, as if the key had
// taken the light step and then moved out.
func TestKeyMovesHeavyWhileDeleting(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	db := naive.Database{
		"R": relation.New("R", tuple.NewSchema("A", "B")),
		"S": relation.New("S", tuple.NewSchema("B", "C")),
	}
	// 20 B-keys of degree 4 in R and in S; N = 160 and θ = √321 ≈ 17.9.
	for i := int64(0); i < 80; i++ {
		db["R"].Set(tuple.Tuple{i, i % 20}, 1)
		db["S"].Set(tuple.Tuple{i % 20, i}, 1)
	}
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db.Clone()); err != nil {
		t.Fatal(err)
	}
	theta := e.Theta()
	// One commit on B = 3: delete two of R's four rows, insert 3⁄2·θ more.
	ops := []BatchOp{{Rel: "R", Row: tuple.Tuple{3, 3}, Mult: -1}, {Rel: "R", Row: tuple.Tuple{23, 3}, Mult: -1}}
	for i := int64(0); float64(len(ops)-4) < 1.5*theta; i++ {
		ops = append(ops, BatchOp{Rel: "R", Row: tuple.Tuple{1000 + i, 3}, Mult: 1})
	}
	// Rows on other keys ride along: light, heavy-free, and one new key.
	ops = append(ops, BatchOp{Rel: "R", Row: tuple.Tuple{500, 4}, Mult: 1}, BatchOp{Rel: "R", Row: tuple.Tuple{501, 99}, Mult: 1})
	minors := e.Stats().MinorRebalances
	if err := e.CommitBatch(ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		db[op.Rel].MustAdd(op.Row, op.Mult)
	}
	if e.ThresholdBase() != 2*160+1 {
		t.Fatalf("M moved to %d: the commit must not cross", e.ThresholdBase())
	}
	if got := e.Stats().MinorRebalances - minors; got != 1 {
		t.Fatalf("%d minor rebalances, want 1: key 3 moving out", got)
	}
	for _, pr := range e.relTab[e.relIdx["R"]-1].occs[0].parts {
		if pr.p.IsLight(tuple.Tuple{3}) {
			t.Fatal("key 3 is still light")
		}
		for _, key := range []tuple.Tuple{{4}, {99}} {
			if got, want := pr.p.LightDegree(key), pr.p.Degree(key); got != want {
				t.Fatalf("light key %v: %d rows in the light part, %d in R", key, got, want)
			}
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkViewsEqualLeafJoin(t, "after key 3 moved heavy", e)
	sameResult(t, "after key 3 moved heavy", e, db)
}
