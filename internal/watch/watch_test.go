package watch_test

import (
	"errors"
	"fmt"
	"testing"

	"ivmeps/internal/core"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
	"ivmeps/internal/watch"
)

// Subscription-level tests against a real core engine: stream integrity
// (fold of the delta stream over the anchor reproduces the root views at
// every epoch), eviction semantics (exact gap, buffered prefix intact),
// and sink lifecycle (last Close uninstalls, resubscribe works).

func mkEngine(t *testing.T, qs string, eps float64) *core.Engine {
	t.Helper()
	q := query.MustParse(qs)
	e, err := core.New(q, core.Options{Mode: viewtree.Dynamic, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Preprocess(e, naive.Database{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// viewState is a fold target: per view, row-key → multiplicity.
type viewState map[string]map[string]int64

func key(t tuple.Tuple) string { return fmt.Sprint([]int64(t)) }

func snapState(s *core.Snapshot, views []string) viewState {
	st := viewState{}
	for _, v := range views {
		m := map[string]int64{}
		s.ViewForEach(v, func(t tuple.Tuple, mult int64) {
			m[key(t)] = mult
		})
		st[v] = m
	}
	return st
}

func (st viewState) apply(t *testing.T, cd *core.CommitDelta) {
	t.Helper()
	for _, vd := range cd.Views {
		m, ok := st[vd.View]
		if !ok {
			t.Fatalf("delta for unknown view %q", vd.View)
		}
		for i, row := range vd.Rows {
			if vd.Mults[i] == 0 {
				t.Fatalf("view %q: zero-mult delta row %v", vd.View, row)
			}
			m[key(row)] += vd.Mults[i]
			if m[key(row)] == 0 {
				delete(m, key(row))
			}
		}
	}
}

func (st viewState) equal(other viewState) error {
	for v, m := range st {
		o := other[v]
		if len(m) != len(o) {
			return fmt.Errorf("view %q: %d rows vs %d", v, len(m), len(o))
		}
		for k, mult := range m {
			if o[k] != mult {
				return fmt.Errorf("view %q: row %s has mult %d vs %d", v, k, mult, o[k])
			}
		}
	}
	return nil
}

// TestStreamFoldMatchesSnapshots drives single-tuple updates through
// enough volume to cross major-rebalance thresholds and checks, at every
// epoch, that folding the delta stream over the anchor equals a fresh
// snapshot of the engine.
func TestStreamFoldMatchesSnapshots(t *testing.T) {
	for _, eps := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("eps=%v", eps), func(t *testing.T) {
			e := mkEngine(t, "Q(A, C) = R(A, B), S(B, C)", eps)
			views := e.RootViews()
			if len(views) == 0 {
				t.Fatal("no root views")
			}

			sub, anchor, err := watch.Subscribe(e, 1024)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			st := snapState(anchor, views)
			wantEpoch := anchor.Epoch()
			anchor.Close()

			check := func() {
				cd, err := sub.Next()
				if err != nil {
					t.Fatal(err)
				}
				defer cd.Release()
				wantEpoch++
				if cd.Epoch != wantEpoch {
					t.Fatalf("epoch %d, want %d", cd.Epoch, wantEpoch)
				}
				st.apply(t, cd)
				s := e.Snapshot()
				defer s.Close()
				if err := st.equal(snapState(s, views)); err != nil {
					t.Fatalf("epoch %d: fold diverged: %v", cd.Epoch, err)
				}
			}

			// Grow (crossing M doublings), then shrink (crossing halvings).
			for i := int64(0); i < 60; i++ {
				if err := e.Update("R", tuple.Tuple{i % 7, i % 5}, 1+i%2); err != nil {
					t.Fatal(err)
				}
				check()
				if err := e.Update("S", tuple.Tuple{i % 5, i % 11}, 1); err != nil {
					t.Fatal(err)
				}
				check()
			}
			for i := int64(59); i >= 0; i-- {
				if err := e.Update("S", tuple.Tuple{i % 5, i % 11}, -1); err != nil {
					t.Fatal(err)
				}
				check()
			}
			if e.Stats().MajorRebalances == 0 {
				t.Fatal("test never crossed a major rebalance; weaken it less")
			}
		})
	}
}

// TestBatchStreamIncludesEmptyCommits checks batch commits publish one
// record per commit — including commits whose root-view delta is empty —
// with consecutive epochs.
func TestBatchStreamIncludesEmptyCommits(t *testing.T) {
	e := mkEngine(t, "Q(A, C) = R(A, B), S(B, C)", 0.5)
	sub, anchor, err := watch.Subscribe(e, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	last := anchor.Epoch()
	anchor.Close()

	// R rows with no matching S row: Q's root delta may be empty but the
	// auxiliary root views still publish; a zero-net batch publishes a
	// record with no view deltas at all.
	commits := [][]core.BatchOp{
		{{Rel: "R", Row: tuple.Tuple{1, 2}, Mult: 1}},
		{{Rel: "R", Row: tuple.Tuple{3, 4}, Mult: 1}, {Rel: "R", Row: tuple.Tuple{3, 4}, Mult: -1}},
		{{Rel: "S", Row: tuple.Tuple{2, 9}, Mult: 1}},
	}
	for _, ops := range commits {
		if err := e.CommitBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	for range commits {
		cd, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		if cd.Epoch != last+1 {
			t.Fatalf("epoch %d, want %d", cd.Epoch, last+1)
		}
		last = cd.Epoch
		cd.Release()
	}
}

// TestEvictionExactGap fills a buffer-2 subscriber with 6 commits: the
// first two must arrive intact, then exactly one LaggedError covering
// epochs anchor+3..anchor+6, and a healthy concurrent subscriber sees all
// six. After the gap surfaces, Next keeps reporting it.
func TestEvictionExactGap(t *testing.T) {
	e := mkEngine(t, "Q(A, B) = R(A, B)", 0)
	slow, sAnchor, err := watch.Subscribe(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, fAnchor, err := watch.Subscribe(e, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	base := sAnchor.Epoch()
	sAnchor.Close()
	fAnchor.Close()

	for i := int64(0); i < 6; i++ {
		if err := e.Update("R", tuple.Tuple{i, i}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 2; i++ {
		cd, err := slow.Next()
		if err != nil {
			t.Fatalf("buffered record %d: %v", i, err)
		}
		if cd.Epoch != base+i {
			t.Fatalf("buffered record epoch %d, want %d", cd.Epoch, base+i)
		}
		cd.Release()
	}
	for i := 0; i < 2; i++ { // the gap must be stable across calls
		_, err = slow.Next()
		var le *watch.LaggedError
		if !errors.As(err, &le) {
			t.Fatalf("want LaggedError, got %v", err)
		}
		if le.From != base+3 || le.To != base+6 {
			t.Fatalf("gap %d..%d, want %d..%d", le.From, le.To, base+3, base+6)
		}
	}
	for i := uint64(1); i <= 6; i++ {
		cd, err := fast.Next()
		if err != nil {
			t.Fatalf("healthy subscriber: %v", err)
		}
		if cd.Epoch != base+i {
			t.Fatalf("healthy subscriber epoch %d, want %d", cd.Epoch, base+i)
		}
		cd.Release()
	}
}

// countSink is a commit sink that is not a Sub: it counts the records the
// engine hands it and remembers the last epoch.
type countSink struct {
	n    int
	last uint64
}

func (c *countSink) PublishCommit(cd *core.CommitDelta) { c.n++; c.last = cd.Epoch }

// TestCloseUninstallsSink checks that independent sinks share the engine
// (each receives every commit while subscribed), that a Close takes only its
// own subscription out, that the last one out disarms capture, and that
// Close and Next are idempotent/well-defined after each other.
func TestCloseUninstallsSink(t *testing.T) {
	e := mkEngine(t, "Q(A, B) = R(A, B)", 0)
	sub, anchor, err := watch.Subscribe(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := anchor.Epoch()
	anchor.Close()

	// A second, unrelated sink subscribes while the first holds the engine:
	// both receive every commit.
	other := &countSink{}
	held, err := e.SubscribeCommits(other)
	if err != nil {
		t.Fatalf("second sink refused while the first is subscribed: %v", err)
	}
	held.Close()
	for i := int64(1); i <= 3; i++ {
		if err := e.Update("R", tuple.Tuple{i, i}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 3; i++ {
		cd, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		if cd.Epoch != base+i {
			t.Fatalf("first sink: epoch %d, want %d", cd.Epoch, base+i)
		}
		cd.Release()
	}
	if other.n != 3 || other.last != base+3 {
		t.Fatalf("second sink: %d records up to epoch %d, want 3 up to %d", other.n, other.last, base+3)
	}

	sub.Close()
	sub.Close() // idempotent
	if _, err := sub.Next(); !errors.Is(err, watch.ErrClosed) {
		t.Fatalf("Next after Close: %v, want ErrClosed", err)
	}

	// The first is gone, the second still receives; once it leaves too the
	// engine publishes to nobody.
	if err := e.Update("R", tuple.Tuple{4, 4}, 1); err != nil {
		t.Fatal(err)
	}
	if other.n != 4 {
		t.Fatalf("second sink stopped receiving when the first closed: %d records, want 4", other.n)
	}
	e.UnsubscribeCommits(other)
	e.UnsubscribeCommits(other) // idempotent
	if err := e.Update("R", tuple.Tuple{5, 5}, 1); err != nil {
		t.Fatal(err)
	}
	if other.n != 4 {
		t.Fatalf("unsubscribed sink still receives: %d records, want 4", other.n)
	}

	// A fresh subscription works after everyone left.
	sub2, anchor2, err := watch.Subscribe(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	base = anchor2.Epoch()
	anchor2.Close()
	if err := e.Update("R", tuple.Tuple{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	cd, err := sub2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cd.Epoch != base+1 {
		t.Fatalf("epoch %d, want %d", cd.Epoch, base+1)
	}
	cd.Release()
}

// TestSubscribeBeforePreprocess checks the error path.
func TestSubscribeBeforePreprocess(t *testing.T) {
	q := query.MustParse("Q(A, B) = R(A, B)")
	e, err := core.New(q, core.Options{Mode: viewtree.Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := watch.Subscribe(e, 4); !errors.Is(err, core.ErrNotBuilt) {
		t.Fatalf("Subscribe before Preprocess: %v, want ErrNotBuilt", err)
	}
}
