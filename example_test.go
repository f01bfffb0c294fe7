package ivmeps_test

import (
	"fmt"
	"os"
	"sort"

	"ivmeps"
)

// The paper's running query: hierarchical with w = 2, δ = 1. ε = 1/2 is the
// weakly Pareto-optimal operating point for update time vs delay.
func Example() {
	q := ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	e, _ := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	_ = e.Load("R", []int64{1, 10}, []int64{2, 10})
	_ = e.Load("S", []int64{10, 7})
	_ = e.Build()
	_ = e.Insert("R", []int64{3, 10})

	rows, mults := e.Rows()
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	for i, r := range rows {
		fmt.Printf("Q(%d, %d) x%d\n", r[0], r[1], mults[i])
	}
	// Output:
	// Q(1, 7) x1
	// Q(2, 7) x1
	// Q(3, 7) x1
}

// Classify places a query in the paper's taxonomy (Figure 2) and reports
// the width measures that determine the engine's guarantees.
func ExampleQuery_Classify() {
	for _, s := range []string{
		"Q(A, B) = R(A, B), S(B)",         // q-hierarchical
		"Q(A) = R(A, B), S(B)",            // free-connex, δ1
		"Q(A, C) = R(A, B), S(B, C)",      // hierarchical, w=2
		"Q() = R(A, B), S(B, C), T(A, C)", // triangle: rejected
	} {
		c := ivmeps.MustParseQuery(s).Classify()
		fmt.Printf("hier=%v q-hier=%v free-connex=%v w=%d d=%d\n",
			c.Hierarchical, c.QHierarchical, c.FreeConnex, c.StaticWidth, c.DynamicWidth)
	}
	// Output:
	// hier=true q-hier=true free-connex=true w=1 d=0
	// hier=true q-hier=false free-connex=true w=1 d=1
	// hier=true q-hier=false free-connex=false w=2 d=1
	// hier=false q-hier=false free-connex=false w=0 d=0
}

// A Snapshot pins one committed state: it keeps enumerating that state —
// concurrently with ingestion, from any goroutine — no matter how the
// engine is updated after the capture, while bare Enumerate always sees
// the latest committed state via an implicit snapshot.
func Example_snapshot() {
	q := ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	e, _ := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	_ = e.Load("R", []int64{1, 10}, []int64{2, 10})
	_ = e.Load("S", []int64{10, 7})
	_ = e.Build()

	snap, _ := e.Snapshot() // pin the 2-tuple state
	defer snap.Close()

	// Ingest a batch; the snapshot is unaffected, the engine moves on.
	_ = e.ApplyBatch("R", [][]int64{{3, 10}, {4, 10}}, nil)

	fmt.Printf("snapshot (epoch %d): %d tuples\n", snap.Epoch(), snap.Count())
	rows, _ := snap.Rows()
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	for _, r := range rows {
		fmt.Printf("  Q(%d, %d)\n", r[0], r[1])
	}
	fmt.Printf("live: %d tuples\n", e.Count())
	// Output:
	// snapshot (epoch 1): 2 tuples
	//   Q(1, 7)
	//   Q(2, 7)
	// live: 4 tuples
}

// A Batch queues updates across any of the query's relations and Commit
// applies them as one atomic maintenance commit: validated up front, all
// or nothing, one snapshot epoch. Ingest streams that interleave several
// relations no longer pay one maintenance pass per relation per row.
func Example_batch() {
	q := ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	e, _ := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	_ = e.Load("R", []int64{1, 10}, []int64{2, 10})
	_ = e.Load("S", []int64{10, 7})
	_ = e.Build()

	// One atomic multi-relation batch: two inserts and a delete.
	b := e.NewBatch()
	b.Insert("R", []int64{3, 20})
	b.Insert("S", []int64{20, 9})
	b.Delete("R", []int64{1, 10})
	if err := e.Commit(b); err != nil {
		fmt.Println("batch rejected:", err)
		return
	}

	// A failing op anywhere rejects the whole batch: the insert of S(30, 5)
	// is NOT applied even though only the delete is invalid.
	b.Reset()
	b.Insert("S", []int64{30, 5})
	b.Delete("R", []int64{42, 42}) // not present: MultiplicityError
	if err := e.Commit(b); err != nil {
		fmt.Println("batch rejected:", err)
	}

	rows, _ := e.Rows()
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	for _, r := range rows {
		fmt.Printf("Q(%d, %d)\n", r[0], r[1])
	}
	// Output:
	// batch rejected: ivmeps: relation R: delete of [42 42] with multiplicity 1 exceeds available multiplicity 0
	// Q(2, 7)
	// Q(3, 9)
}

// All returns a Go 1.23 range-over-func iterator over the committed result:
// each loop observes one consistent state (an implicit snapshot), and the
// yielded row slice is reused between iterations.
func ExampleEngine_All() {
	q := ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	e, _ := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	_ = e.Load("R", []int64{1, 10}, []int64{2, 10})
	_ = e.Load("S", []int64{10, 7})
	_ = e.Build()

	total := 0
	for row, mult := range e.All() {
		_ = row
		total += int(mult)
	}
	fmt.Printf("total multiplicity: %d\n", total)
	// Output:
	// total multiplicity: 2
}

// Multiplicities double as group-by aggregates (the extension noted in the
// paper's conclusion): loading a measure as the tuple's multiplicity makes
// every enumerated multiplicity a SUM over the joined group, and loading 1
// makes it a COUNT.
func ExampleEngine_Enumerate_aggregates() {
	// SUM(spend) per region: Spend(Cust, Day) weighted by amount, joined
	// with Location(Cust, Region), grouped by the free variable Region.
	q := ivmeps.MustParseQuery("Total(Region) = Spend(Cust, Day), Location(Cust, Region)")
	e, _ := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	_ = e.LoadWeighted("Spend", []int64{1, 1}, 30) // customer 1 spent 30 on day 1
	_ = e.LoadWeighted("Spend", []int64{1, 2}, 12)
	_ = e.LoadWeighted("Spend", []int64{2, 1}, 5)
	_ = e.Load("Location", []int64{1, 100}, []int64{2, 100}, []int64{3, 200})
	_ = e.Build()

	e.Enumerate(func(row []int64, sum int64) bool {
		fmt.Printf("region %d: total %d\n", row[0], sum)
		return true
	})
	// Output:
	// region 100: total 47
}

// NewSharded returns an Engine over K independent engines: base relations
// are partitioned by a hash of the query's shard-key variables, commits are
// validated on every shard and applied all-or-nothing across them, and
// enumeration gathers the shards' results.
func Example_sharded() {
	q := ivmeps.MustParseQuery("Q(A, B, C) = R(A, B), S(A, C)")
	s, _ := ivmeps.NewSharded(q, ivmeps.ShardedOptions{
		Options: ivmeps.Options{Epsilon: 0.5},
		Shards:  4,
	})
	defer s.Close()
	_ = s.Load("R", []int64{1, 10}, []int64{2, 20})
	_ = s.Load("S", []int64{1, 100}, []int64{2, 200})
	_ = s.Build()

	// Every shard-key variable (here A, the variable in every atom) is
	// free, so the gather concatenates per-shard streams with no merge.
	vars, concat := s.ShardKey()
	fmt.Printf("shard key %v, concatenating gather: %v\n", vars, concat)

	// One atomic cross-shard batch, through the same Commit.
	b := s.NewBatch()
	b.Insert("R", []int64{3, 30})
	b.Insert("S", []int64{3, 300})
	_ = s.Commit(b)

	rows, _ := s.Rows()
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	for _, r := range rows {
		fmt.Printf("Q(%d, %d, %d)\n", r[0], r[1], r[2])
	}
	// Output:
	// shard key [A], concatenating gather: true
	// Q(1, 10, 100)
	// Q(2, 20, 200)
	// Q(3, 30, 300)
}

// A durable engine logs every commit before applying it, so a kill at any
// moment — even mid-commit — loses nothing that was committed: Open
// rebuilds the exact committed state (rows, N, epoch) from the checkpoint
// and the logged tail, and the recovered engine keeps committing into the
// same log. SyncAlways makes "committed" mean "on stable storage".
func Example_checkpointRecover() {
	dir, _ := os.MkdirTemp("", "ivmeps-wal-*")
	defer os.RemoveAll(dir)
	opts := ivmeps.Options{Epsilon: 0.5,
		Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways}}

	q := ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	e, _ := ivmeps.New(q, opts)
	_ = e.Load("R", []int64{1, 10}, []int64{2, 10})
	_ = e.Load("S", []int64{10, 7})
	_ = e.Build() // writes the initial checkpoint
	_ = e.Insert("R", []int64{3, 10})
	_ = e.Delete("R", []int64{1, 10})
	// The process dies here: no Close, no checkpoint since Build. Every
	// commit above is nevertheless on disk.

	r, _ := ivmeps.Open(q, opts)
	defer r.Close()
	rows, mults := r.Rows()
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	for i, row := range rows {
		fmt.Printf("Q(%d, %d) x%d\n", row[0], row[1], mults[i])
	}
	s, _ := r.Snapshot()
	defer s.Close()
	fmt.Printf("epoch %d after %d commits\n", s.Epoch(), 2)
	// Output:
	// Q(2, 7) x1
	// Q(3, 7) x1
	// epoch 3 after 2 commits
}

// A Watcher turns the engine into a change stream: anchored at a snapshot
// of the committed state, it then yields every commit's root-view delta in
// epoch order with no gaps, so folding the deltas over the anchor tracks
// the result exactly — a cache or downstream replica stays consistent
// without ever re-reading the engine. Here the two commits after the
// anchor arrive as one event each: the insert joins one new result row
// into existence, the delete retracts both rows that depended on S(10, 7).
func Example_watch() {
	q := ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	e, _ := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	_ = e.Load("R", []int64{1, 10})
	_ = e.Load("S", []int64{10, 7})
	_ = e.Build()

	w, _ := e.Watch(ivmeps.WatchOptions{})
	defer w.Close()
	anchor := w.Snapshot() // the state the stream's first event builds on
	fmt.Println("anchored at epoch", anchor.Epoch())
	anchor.Close()

	_ = e.Insert("R", []int64{2, 10})
	_ = e.Delete("S", []int64{10, 7})

	events := 0
	for ev, err := range w.Events() {
		if err != nil { // a WatcherLaggedError: re-anchor with a new Watch
			fmt.Println(err)
			break
		}
		for _, d := range ev.Deltas {
			for i, row := range d.Rows {
				fmt.Printf("epoch %d: Q%v %+d\n", ev.Epoch, row, d.Mults[i])
			}
		}
		if events++; events == 2 {
			break
		}
	}
	// Output:
	// anchored at epoch 1
	// epoch 2: Q[2 7] +1
	// epoch 3: Q[1 7] -1
	// epoch 3: Q[2 7] -1
}
