package core

import (
	"math/rand"
	"testing"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
	"ivmeps/internal/workload"
)

// viewDeltasExact is Stats.ViewDeltas after TestViewDeltasExact's two-path
// run: the paper's update cost (Proposition 27) as a count of view writes. It
// moves only when propagation writes more or fewer rows — CHANGES.md records
// every value it has had and why.
const viewDeltasExact = 81948

// viewDeltasMultiTree is the same count for the multi-tree run, whose
// relations each reach several indicators and whose single updates trigger
// minor rebalances — writes through All trees, L trees and ∃H that the
// two-path run, with one indicator and no minor rebalance, does not make.
const viewDeltasMultiTree = 27967

// TestViewDeltasExact pins the number of view writes and minor rebalances a
// fixed run causes — single-tuple updates, a batch, a major rebalance, more
// updates — and the number of relations behind the forest's views and of
// the view nodes read off an index instead, on the skewed two-path join and
// on the multi-tree query. With -v it prints the count per view.
func TestViewDeltasExact(t *testing.T) {
	t.Run("two-path", func(t *testing.T) {
		const n = 5000
		rng := rand.New(rand.NewSource(1))
		runViewDeltas(t, rng, viewDeltasRun{
			query: "Q(A, C) = R(A, B), S(B, C)",
			db:    workload.TwoPath(rng, n, 1.15),
			rels:  []string{"S", "R"},
			// Inserted rows draw B from the data's own distribution.
			skew: "B", draw: workload.NewZipf(rng, 1.15, n).Draw, domain: n,
			want: viewDeltasExact, views: 10, classes: 4, backed: 6,
		})
	})
	t.Run("multi-tree", func(t *testing.T) {
		// Every A-key starts light, with rows/keys rows per relation; inserts
		// go to one hot A-key at a time, the next one every drift inserts, so
		// one key after another turns heavy.
		const n, rows, keys, drift = 200, 600, 16, 600
		rng := rand.New(rand.NewSource(1))
		q := query.MustParse(multiTreeQuery)
		db := naive.Database{}
		for _, a := range q.Atoms {
			r := relation.New(a.Rel, a.Vars)
			for i := 0; i < rows; i++ {
				tu := tuple.Tuple{int64(i % keys)}
				for len(tu) < len(a.Vars) {
					tu = append(tu, rng.Int63n(n))
				}
				r.Set(tu, 1)
			}
			db[a.Rel] = r
		}
		inserts := 0
		runViewDeltas(t, rng, viewDeltasRun{
			query: multiTreeQuery,
			db:    db,
			rels:  []string{"S", "T", "U", "V"},
			skew:  "A", domain: n,
			draw: func() int64 {
				inserts++
				return int64(inserts/drift) % keys
			},
			want: viewDeltasMultiTree, minors: 14, views: 45, classes: 27, backed: 10,
		})
	})
}

// viewDeltasRun is one pinned run of TestViewDeltasExact: the query and its
// database; the relations ops pick from, uniformly in this order; the
// variable of an inserted row that draw fills, its other values being uniform
// over [0, domain); and what the run must read — view writes, minor
// rebalances, and view nodes with the relations behind them and the nodes
// read off an index.
type viewDeltasRun struct {
	query          string
	db             naive.Database
	rels           []string
	skew           tuple.Variable
	draw           func() int64
	domain         int64
	want, minors   int64
	views, classes int
	backed         int
}

func runViewDeltas(t *testing.T, rng *rand.Rand, run viewDeltasRun) {
	db := run.db
	e, err := New(query.MustParse(run.query), Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	writes := traceViewWrites(t)

	// Half the ops delete a stored tuple, half insert a new one; db mirrors
	// the engine.
	live := map[string][]tuple.Tuple{}
	for name, r := range db {
		r.ForEach(func(tu tuple.Tuple, _ int64) { live[name] = append(live[name], tu.Clone()) })
	}
	next := func() BatchOp {
		for {
			rel := run.rels[rng.Intn(len(run.rels))]
			if rows := live[rel]; rng.Intn(2) == 0 {
				i := rng.Intn(len(rows))
				tu := rows[i]
				rows[i] = rows[len(rows)-1]
				live[rel] = rows[:len(rows)-1]
				db[rel].MustAdd(tu, -1)
				return BatchOp{Rel: rel, Row: tu, Mult: -1}
			}
			schema := db[rel].Schema()
			tu := make(tuple.Tuple, len(schema))
			for j := range tu {
				tu[j] = rng.Int63n(run.domain)
			}
			tu[schema.IndexOf(run.skew)] = run.draw()
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
	s := e.Stats()
	var traced int64
	for _, rows := range writes {
		traced += rows
	}
	t.Logf("view writes: %d over %d updates, %d minor rebalances\n%s", s.ViewDeltas, s.Updates, s.MinorRebalances, viewWriteTable(writes))
	if traced != s.ViewDeltas {
		t.Errorf("the per-view counts sum to %d, ViewDeltas is %d", traced, s.ViewDeltas)
	}
	if s.ViewDeltas != run.want || s.MinorRebalances != run.minors {
		t.Errorf("ViewDeltas = %d, MinorRebalances = %d; recorded %d, %d", s.ViewDeltas, s.MinorRebalances, run.want, run.minors)
	}

	views, backed, distinct := 0, 0, map[*relation.Relation]bool{}
	for id := range e.info {
		switch {
		case e.info[id].node.Kind != viewtree.View:
		case e.info[id].sumKey != nil:
			views++
			backed++
		default:
			views++
			distinct[e.rels[id]] = true
		}
	}
	if views != run.views || len(distinct) != run.classes || backed != run.backed {
		t.Errorf("%d relations behind %d view nodes, %d read off an index; want %d behind %d, %d", len(distinct), views-backed, backed, run.classes, run.views-run.backed, run.backed)
	}
}
