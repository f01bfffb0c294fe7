package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// resultMap materializes an enumeration into a comparable map.
func resultMap(enum func(func(tuple.Tuple, int64) bool)) map[string]int64 {
	out := map[string]int64{}
	enum(func(t tuple.Tuple, m int64) bool {
		out[fmt.Sprint(t)] = m
		return true
	})
	return out
}

func sameResultMap(t *testing.T, label string, got, want map[string]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result tuples, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for k, m := range want {
		if got[k] != m {
			t.Fatalf("%s: tuple %s has mult %d, want %d", label, k, got[k], m)
		}
	}
}

// A snapshot taken before a batch must keep observing the pre-batch state
// after the batch commits, while the engine observes the post-batch state —
// across single updates, batches, and a Clear-heavy major rebalance.
func TestSnapshotSeesPreBatchState(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if err := Preprocess(e, randomDB(q, rng, 30, 5)); err != nil {
		t.Fatal(err)
	}
	pre := resultMap(e.Enumerate)
	preEpoch := e.Epoch()

	snap := e.Snapshot()
	defer snap.Close()
	if snap.Epoch() != preEpoch {
		t.Fatalf("snapshot epoch %d, engine epoch %d", snap.Epoch(), preEpoch)
	}

	rows, mults := randomBatch(rng, e, "R", 2, 60, 7)
	if err := applyBatch(e, "R", rows, mults); err != nil {
		t.Fatal(err)
	}
	if err := e.Update("S", tuple.Tuple{3, 3}, 2); err != nil {
		t.Fatal(err)
	}
	post := resultMap(e.Enumerate)

	sameResultMap(t, "snapshot after batch", resultMap(snap.Enumerate), pre)
	sameResultMap(t, "engine after batch", resultMap(e.Enumerate), post)
	if e.Epoch() == preEpoch {
		t.Fatalf("epoch did not advance across commits")
	}
	// A snapshot of the new state sees the new state; the old snapshot is
	// still pinned to the old one.
	snap2 := e.Snapshot()
	defer snap2.Close()
	sameResultMap(t, "fresh snapshot", resultMap(snap2.Enumerate), post)
	sameResultMap(t, "old snapshot, again", resultMap(snap.Enumerate), pre)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Major rebalancing refills every view in place via Clear; a pinned
// snapshot must survive it untouched.
func TestSnapshotAcrossMajorRebalance(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	if err := Preprocess(e, randomDB(q, rng, 20, 5)); err != nil {
		t.Fatal(err)
	}
	pre := resultMap(e.Enumerate)
	snap := e.Snapshot()
	defer snap.Close()

	majors := e.Stats().MajorRebalances
	// Grow far enough to force at least one major rebalance.
	for i := int64(0); e.Stats().MajorRebalances == majors; i++ {
		if err := e.Update("R", tuple.Tuple{100 + i, 200 + i}, 1); err != nil {
			t.Fatal(err)
		}
		if i > 10000 {
			t.Fatal("no major rebalance after 10000 inserts")
		}
	}
	sameResultMap(t, "snapshot across major rebalance", resultMap(snap.Enumerate), pre)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The property behind the epoch scheme: a snapshot taken at any moment —
// including while a batch commit is in flight — observes exactly the
// committed state of its epoch: some pre- or post-batch state, never a
// mixture. Reader goroutines snapshot and materialize continuously while the
// writer commits a stream of batches and single updates, recording the
// materialization of every committed epoch; every reader observation must
// match the writer's record for its epoch. Run with -race, this is also the
// race suite for Enumerate/Snapshot vs batch commits. Each seed draws its own
// database and commit stream.
func TestSnapshotConsistentUnderConcurrentBatches(t *testing.T) {
	for _, seed := range []int64{1, 2, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testSnapshotConsistentUnderConcurrentBatches(t, seed)
		})
	}
}

func testSnapshotConsistentUnderConcurrentBatches(t *testing.T, seed int64) {
	q := query.MustParse(multiTreeQuery)
	rng := rand.New(rand.NewSource(101 * seed))
	db := randomDB(q, rng, 40, 5)
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}

	// states[epoch] is the writer-side materialization after the
	// commit that published epoch. Written only by the writer
	// goroutine; read after the readers join.
	states := map[uint64]map[string]int64{e.Epoch(): resultMap(e.Enumerate)}

	type obs struct {
		epoch uint64
		res   map[string]int64
	}
	var (
		obsMu        sync.Mutex
		observations []obs
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Observe before checking stop: every reader contributes
			// at least one observation even if it is only scheduled
			// once the writer is done (single-CPU runs).
			for {
				s := e.Snapshot()
				res := resultMap(s.Enumerate)
				ep := s.Epoch()
				s.Close()
				obsMu.Lock()
				observations = append(observations, obs{ep, res})
				obsMu.Unlock()
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	rels := q.RelationNames()
	for round := 0; round < 10; round++ {
		rel := rels[rng.Intn(len(rels))]
		vars := 0
		for _, a := range q.Atoms {
			if a.Rel == rel {
				vars = len(a.Vars)
			}
		}
		size := 60
		if round%3 == 2 {
			size = 160 // cross a rebalance threshold mid-run
		}
		rows, mults := randomBatch(rng, e, rel, vars, size, 6+int64(round))
		if round%4 == 3 {
			// Single-update commits interleave with batch commits.
			for i := range rows[:min(len(rows), 5)] {
				if err := e.Update(rel, rows[i], mults[i]); err != nil {
					t.Fatal(err)
				}
				states[e.Epoch()] = resultMap(e.Enumerate)
			}
			continue
		}
		if err := applyBatch(e, rel, rows, mults); err != nil {
			t.Fatal(err)
		}
		states[e.Epoch()] = resultMap(e.Enumerate)
	}
	close(stop)
	wg.Wait()

	if len(observations) == 0 {
		t.Fatal("readers made no observations")
	}
	for i, o := range observations {
		want, ok := states[o.epoch]
		if !ok {
			t.Fatalf("observation %d: snapshot at epoch %d, which no commit published", i, o.epoch)
		}
		sameResultMap(t, fmt.Sprintf("observation %d at epoch %d", i, o.epoch), o.res, want)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Steady-state single-tuple updates must stay allocation-free once every
// snapshot is closed: the only residue of the snapshot machinery on the
// write path is the pin-count check, and the detaches triggered while a
// snapshot was open must leave warmed stores behind.
func TestSnapshotClosedRestoresZeroAllocUpdates(t *testing.T) {
	q := query.MustParse("Q(A, B) = R(A, B), S(B)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	if err := Preprocess(e, randomDB(q, rng, 200, 40)); err != nil {
		t.Fatal(err)
	}

	snap := e.Snapshot()
	// Touch both relations while pinned, forcing the copy-on-write detach.
	if err := e.Update("R", tuple.Tuple{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Update("S", tuple.Tuple{1}, 1); err != nil {
		t.Fatal(err)
	}
	snap.Close()

	// Warm the post-detach stores, then require zero allocations for a
	// steady insert/delete cycle. The tuple is hoisted out of the closure:
	// a literal inside it would be the measured allocation.
	tu := tuple.Tuple{2, 7}
	cycle := func() {
		if err := e.Update("R", tu, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Update("R", tu, -1); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady update after snapshot Close allocates %v/op, want 0", allocs)
	}
}
