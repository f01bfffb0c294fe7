package ivmeps

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the public Watch surface. The headline property
// (TestWatchDeltaEqualsSnapshotDiff) is the delta≡diff equivalence: under
// concurrent multi-relation commit traffic — across worker counts, major
// rebalances, and watcher churn — the fold of every watcher's delta stream
// over its anchor snapshot is bit-identical to an independent snapshot of
// the engine at each delivered epoch. The adversarial tests pin the
// eviction contract (exact typed gap, surviving streams unaffected), Close
// during in-flight commits (no deadlock, no leaked goroutines), and the
// zero-alloc commit path once every watcher is gone.

// wviewState is a fold target: view name → (row key → multiplicity).
type wviewState map[string]map[string]int64

func wkey(row []int64) string { return fmt.Sprint(row) }

// snapViewState reads the given views out of a snapshot.
func snapViewState(t testing.TB, s *Snapshot, views []string) wviewState {
	t.Helper()
	st := wviewState{}
	for _, v := range views {
		rows, mults, err := s.ViewRows(v)
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]int64, len(rows))
		for i := range rows {
			m[wkey(rows[i])] = mults[i]
		}
		st[v] = m
	}
	return st
}

// applyEvent folds one event into the state.
func (st wviewState) applyEvent(ev Event) error {
	for _, vd := range ev.Deltas {
		m, ok := st[vd.View]
		if !ok {
			return fmt.Errorf("epoch %d: delta for unwatched view %q", ev.Epoch, vd.View)
		}
		for i, row := range vd.Rows {
			if vd.Mults[i] == 0 {
				return fmt.Errorf("epoch %d: view %q: zero-mult row %v", ev.Epoch, vd.View, row)
			}
			k := wkey(row)
			m[k] += vd.Mults[i]
			if m[k] == 0 {
				delete(m, k)
			}
		}
	}
	return nil
}

// diff compares two states over the views of st.
func (st wviewState) diff(other wviewState) error {
	for v, m := range st {
		o := other[v]
		if len(m) != len(o) {
			return fmt.Errorf("view %q: %d rows, want %d", v, len(m), len(o))
		}
		for k, mult := range m {
			if o[k] != mult {
				return fmt.Errorf("view %q: row %s mult %d, want %d", v, k, mult, o[k])
			}
		}
	}
	return nil
}

// wrefTable shares the committer's per-epoch reference snapshots with the
// watcher goroutines.
type wrefTable struct {
	mu sync.Mutex
	m  map[uint64]wviewState
}

func (r *wrefTable) put(epoch uint64, st wviewState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[epoch] = st
}

// wait blocks until the reference for epoch exists (the committer records
// it right after the commit that published epoch returns).
func (r *wrefTable) wait(epoch uint64) (wviewState, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.mu.Lock()
		st, ok := r.m[epoch]
		r.mu.Unlock()
		if ok {
			return st, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no reference snapshot for epoch %d after 10s", epoch)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// wrelSpec describes one relation of a traffic generator.
type wrelSpec struct {
	name  string
	arity int
}

// wtraffic generates batches whose deletes are always covered: it mirrors
// the committed contents per relation and tracks the in-batch net effect.
type wtraffic struct {
	rng   *rand.Rand
	specs []wrelSpec
	live  map[string][][]int64        // committed rows (with multiplicity > 0)
	mult  map[string]map[string]int64 // committed multiplicity per row
}

func newWTraffic(rng *rand.Rand, specs []wrelSpec) *wtraffic {
	tr := &wtraffic{rng: rng, specs: specs, live: map[string][][]int64{}, mult: map[string]map[string]int64{}}
	for _, sp := range specs {
		tr.mult[sp.name] = map[string]int64{}
	}
	return tr
}

func (tr *wtraffic) row(arity int, domain int64) []int64 {
	row := make([]int64, arity)
	for i := range row {
		row[i] = tr.rng.Int63n(domain)
	}
	return row
}

// wop is one generated update.
type wop struct {
	rel  string
	row  []int64
	mult int64
}

// genOps builds one multi-relation op stream with covered deletes.
func (tr *wtraffic) genOps(perRel int, insertBias float64, domain int64) []wop {
	var ops []wop
	net := map[string]map[string]int64{}
	for _, sp := range tr.specs {
		net[sp.name] = map[string]int64{}
	}
	for _, sp := range tr.specs {
		for i := 0; i < perRel; i++ {
			if tr.rng.Float64() < insertBias || len(tr.live[sp.name]) == 0 {
				row := tr.row(sp.arity, domain)
				ops = append(ops, wop{sp.name, row, 1})
				net[sp.name][wkey(row)]++
			} else {
				row := tr.live[sp.name][tr.rng.Intn(len(tr.live[sp.name]))]
				k := wkey(row)
				if tr.mult[sp.name][k]+net[sp.name][k] <= 0 {
					continue
				}
				ops = append(ops, wop{sp.name, row, -1})
				net[sp.name][k]--
			}
		}
	}
	return ops
}

// commitOps marks the ops as committed in the mirror.
func (tr *wtraffic) commitOps(ops []wop) {
	for _, op := range ops {
		k := wkey(op.row)
		m := tr.mult[op.rel]
		if m[k] == 0 && op.mult > 0 {
			tr.live[op.rel] = append(tr.live[op.rel], op.row)
		}
		m[k] += op.mult
		if m[k] == 0 {
			// Leave the row in live; genOps skips rows whose multiplicity
			// is exhausted, and a later insert may revive it.
		}
	}
}

// wwatchResult is one watcher goroutine's outcome.
type wwatchResult struct {
	events int
	err    error
}

// wfolder is one live folding watcher: the handle (for churn/shutdown) and
// the last epoch its goroutine finished verifying.
type wfolder struct {
	w    *Watcher
	last atomic.Uint64
}

// runFoldingWatcher opens a watcher (optionally filtered to views) and
// folds its stream, comparing against the reference at every epoch, until
// the watcher is closed externally. It never evicts (large buffer).
func runFoldingWatcher(t *testing.T, e *Engine, refs *wrefTable, filter []string, out chan<- wwatchResult) *wfolder {
	t.Helper()
	w, err := e.Watch(WatchOptions{Buffer: 1 << 14, Views: filter})
	if err != nil {
		t.Fatal(err)
	}
	watched := filter
	if watched == nil {
		watched = e.Views()
	}
	f := &wfolder{w: w}
	anchor := w.Snapshot()
	go func() {
		defer anchor.Close()
		st := snapViewState(t, anchor, watched)
		prev := anchor.Epoch()
		f.last.Store(prev)
		n := 0
		for ev, err := range w.Events() {
			if err != nil {
				out <- wwatchResult{n, err}
				return
			}
			if ev.Epoch != prev+1 {
				out <- wwatchResult{n, fmt.Errorf("epoch %d after %d: stream has a gap", ev.Epoch, prev)}
				return
			}
			prev = ev.Epoch
			if err := st.applyEvent(ev); err != nil {
				out <- wwatchResult{n, err}
				return
			}
			ref, err := refs.wait(ev.Epoch)
			if err != nil {
				out <- wwatchResult{n, err}
				return
			}
			if err := st.diff(ref); err != nil {
				out <- wwatchResult{n, fmt.Errorf("epoch %d: fold diverged from snapshot: %v", ev.Epoch, err)}
				return
			}
			n++
			f.last.Store(prev)
		}
		out <- wwatchResult{n, nil}
	}()
	return f
}

// TestWatchDeltaEqualsSnapshotDiff is the headline property: concurrent
// folding watchers — full and filtered, joining and leaving mid-traffic —
// all reproduce the engine's root views exactly, at every epoch, across
// multi-relation batch commits that force major rebalances, over three
// random traffic histories per query.
func TestWatchDeltaEqualsSnapshotDiff(t *testing.T) {
	cases := []struct {
		name  string
		query string
		specs []wrelSpec
	}{
		{"twopath", "Q(A, C) = R(A, B), S(B, C)",
			[]wrelSpec{{"R", 2}, {"S", 2}}},
		{"multitree", "Q(C, E) = R(A), S(A, B), T(A, B, C), U(A, D), V(A, D, E)",
			[]wrelSpec{{"R", 1}, {"S", 2}, {"T", 3}, {"U", 2}, {"V", 3}}},
	}
	for _, seed := range []int64{1, 2, 8} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				runWatchProperty(t, tc.query, tc.specs, seed)
			})
		}
	}
}

func runWatchProperty(t *testing.T, qs string, specs []wrelSpec, seed int64) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(len(specs))))
	q := MustParseQuery(qs)
	e, err := New(q, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tr := newWTraffic(rng, specs)
	// A small initial load so anchors are non-trivial.
	init := tr.genOps(8, 1.0, 8)
	for _, op := range init {
		if err := e.LoadWeighted(op.rel, op.row, op.mult); err != nil {
			t.Fatal(err)
		}
	}
	tr.commitOps(init)
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	views := e.Views()
	if len(views) == 0 {
		t.Fatal("no root views")
	}

	refs := &wrefTable{m: map[uint64]wviewState{}}
	results := make(chan wwatchResult, 16)
	var live []*wfolder
	spawned := 0

	// Two full watchers and one filtered watcher from the start; more join
	// mid-traffic, and one is closed mid-traffic (churn).
	live = append(live, runFoldingWatcher(t, e, refs, nil, results))
	live = append(live, runFoldingWatcher(t, e, refs, nil, results))
	live = append(live, runFoldingWatcher(t, e, refs, views[:1], results))
	spawned += 3

	var finalEpoch uint64
	b := e.NewBatch()
	commit := func(perRel int, insertBias float64, domain int64) {
		ops := tr.genOps(perRel, insertBias, domain)
		b.Reset()
		for _, op := range ops {
			b.Apply(op.rel, op.row, op.mult)
		}
		if err := e.Commit(b); err != nil {
			t.Fatal(err)
		}
		tr.commitOps(ops)
		s, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		finalEpoch = s.Epoch()
		refs.put(finalEpoch, snapViewState(t, s, views))
		s.Close()
	}

	const rounds, stepsPerRound = 5, 8
	for round := 0; round < rounds; round++ {
		// Grow early (crossing M doublings), shrink late (crossing
		// halvings); domain small enough that rows join.
		bias := 0.9 - 0.18*float64(round)
		for step := 0; step < stepsPerRound; step++ {
			commit(30, bias, 8)
		}
		switch round {
		case 1: // churn: late joiners anchored mid-stream
			live = append(live, runFoldingWatcher(t, e, refs, nil, results))
			live = append(live, runFoldingWatcher(t, e, refs, views[len(views)-1:], results))
			spawned += 2
		case 2: // churn: one of the originals leaves mid-traffic; its
			// goroutine ends silently with however much it verified.
			live[1].w.Close()
			live = append(live[:1], live[2:]...)
		}
	}
	if e.Stats().MajorRebalances == 0 {
		t.Fatal("traffic never crossed a major rebalance; the property was not exercised across one")
	}

	// Every still-open watcher must reach (and verify) the final epoch —
	// only then is it closed, so nothing buffered is silently dropped.
	deadline := time.Now().Add(30 * time.Second)
	for _, f := range live {
		for f.last.Load() < finalEpoch {
			if time.Now().After(deadline) {
				t.Fatalf("a watcher stalled at epoch %d of %d", f.last.Load(), finalEpoch)
			}
			time.Sleep(200 * time.Microsecond)
		}
		f.w.Close()
	}
	for i := 0; i < spawned; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
}

// TestWatchSlowConsumerEviction pins the eviction contract on the public
// surface: a Buffer-3 watcher that never consumes during 9 commits gets
// its 3 buffered events gap-free, then exactly one WatcherLaggedError
// naming epochs anchor+4..anchor+9 — while a concurrent healthy watcher
// receives all 9 commits and its fold still matches the engine exactly.
func TestWatchSlowConsumerEviction(t *testing.T) {
	e := mkTwoPath(t)
	defer e.Close()
	views := e.Views()

	slow, err := e.Watch(WatchOptions{Buffer: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := e.Watch(WatchOptions{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	slowAnchor := slow.Snapshot()
	defer slowAnchor.Close()
	base := slowAnchor.Epoch()
	fastAnchor := fast.Snapshot()
	fastState := snapViewState(t, fastAnchor, views)
	fastAnchor.Close()

	for i := int64(0); i < 9; i++ {
		if err := e.Insert("R", []int64{500 + i, i % 4}); err != nil {
			t.Fatal(err)
		}
	}

	// The slow watcher: 3 buffered events, consecutive from the anchor,
	// then the typed gap.
	got := 0
	var lagErr error
	for ev, err := range slow.Events() {
		if err != nil {
			lagErr = err
			break
		}
		if ev.Epoch != base+uint64(got)+1 {
			t.Fatalf("buffered event epoch %d, want %d", ev.Epoch, base+uint64(got)+1)
		}
		got++
	}
	if got != 3 {
		t.Fatalf("delivered %d buffered events before the gap, want 3", got)
	}
	if !errors.Is(lagErr, ErrWatcherLagged) {
		t.Fatalf("errors.Is(err, ErrWatcherLagged) = false for %v", lagErr)
	}
	var wle *WatcherLaggedError
	if !errors.As(lagErr, &wle) {
		t.Fatalf("errors.As *WatcherLaggedError = false for %v", lagErr)
	}
	if wle.From != base+4 || wle.To != base+9 {
		t.Fatalf("gap %d..%d, want %d..%d", wle.From, wle.To, base+4, base+9)
	}
	// Ranging again reports the same gap, and nothing else.
	var again []error
	for _, err := range slow.Events() {
		again = append(again, err)
	}
	if len(again) != 1 || !errors.As(again[0], &wle) || wle.From != base+4 || wle.To != base+9 {
		t.Fatalf("ranging Events after the eviction yielded %v, want the same gap once", again)
	}

	// The healthy watcher is untouched: all 9 events, in order, folding to
	// the engine's exact state.
	prev := base
	n := 0
	for ev, err := range fast.Events() {
		if err != nil {
			t.Fatal(err)
		}
		if ev.Epoch != prev+1 {
			t.Fatalf("healthy stream: epoch %d after %d", ev.Epoch, prev)
		}
		prev = ev.Epoch
		if err := fastState.applyEvent(ev); err != nil {
			t.Fatal(err)
		}
		if n++; n == 9 {
			break
		}
	}
	s, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := fastState.diff(snapViewState(t, s, views)); err != nil {
		t.Fatalf("healthy watcher diverged after sibling eviction: %v", err)
	}
}

// waitGoroutines waits for the goroutine count to drop back to at most
// want, failing with a full stack dump if it does not.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine count %d still above baseline %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatcherCloseDuringCommits closes watchers — from a different
// goroutine than their consumer, repeatedly — while a committer hammers
// the engine. No call may deadlock, consumers must terminate, surviving
// streams stay gap-free, and every goroutine must be gone at the end.
func TestWatcherCloseDuringCommits(t *testing.T) {
	e := mkTwoPath(t)
	defer e.Close()
	baseline := runtime.NumGoroutine()

	stop := make(chan struct{})
	committerDone := make(chan error, 1)
	go func() {
		defer close(committerDone)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Apply("R", []int64{i % 50, i % 4}, 1); err != nil {
				committerDone <- err
				return
			}
		}
	}()

	for round := 0; round < 25; round++ {
		w, err := e.Watch(WatchOptions{Buffer: 4})
		if err != nil {
			t.Fatal(err)
		}
		consumed := make(chan int, 1)
		go func() {
			prev := uint64(0)
			n := 0
			for ev, err := range w.Events() {
				if err != nil {
					break // eviction with Buffer: 4 is expected; gap typed elsewhere
				}
				if prev != 0 && ev.Epoch != prev+1 {
					n = -1 // signal a gap in a live stream
					break
				}
				prev = ev.Epoch
				n++
			}
			consumed <- n
		}()
		// Let the consumer see some traffic, then close from this
		// goroutine while it is (likely) blocked in Next mid-commit.
		time.Sleep(time.Duration(round%3) * time.Millisecond)
		w.Close()
		select {
		case n := <-consumed:
			if n == -1 {
				t.Fatal("live stream delivered non-consecutive epochs")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("consumer did not terminate after Close: deadlock")
		}
	}

	close(stop)
	if err := <-committerDone; err != nil {
		t.Fatal(err)
	}
	// The engine must still commit and read cleanly after all the churn.
	if err := e.Insert("S", []int64{1, 999}); err != nil {
		t.Fatal(err)
	}
	_ = e.Count()
	waitGoroutines(t, baseline)
}

// TestWatchNoGoroutineLeaks pins that the watch layer spawns no goroutines
// of its own: open/close cycles (with live traffic in between) leave the
// process at its pre-watch goroutine count.
func TestWatchNoGoroutineLeaks(t *testing.T) {
	e := mkTwoPath(t)
	defer e.Close()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		w, err := e.Watch(WatchOptions{Buffer: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Insert("R", []int64{int64(1000 + i), int64(i % 4)}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			s := w.Snapshot()
			s.Close()
		}
		w.Close()
	}
	waitGoroutines(t, baseline)
}

// TestWatchClosedZeroAllocCommit pins the acceptance criterion that a
// steady-state commit with zero watchers allocates nothing — including
// after watchers existed and left (capture fully disarms).
func TestWatchClosedZeroAllocCommit(t *testing.T) {
	e := mkTwoPath(t)
	defer e.Close()

	// A watcher lived and died: the commit path must return to its
	// zero-overhead state.
	w, err := e.Watch(WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("R", []int64{9000, 0}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	const rowsPerRel = 16
	var rRows, sRows [][]int64
	for i := int64(0); i < rowsPerRel; i++ {
		rRows = append(rRows, []int64{3000 + i, i % 4})
		sRows = append(sRows, []int64{i % 4, 4000 + i})
	}
	b := e.NewBatch()
	fill := func(mult int64) {
		b.Reset()
		for i := range rRows {
			b.Apply("R", rRows[i], mult)
			b.Apply("S", sRows[i], mult)
		}
	}
	cycle := func() {
		fill(1)
		if err := e.Commit(b); err != nil {
			t.Fatal(err)
		}
		fill(-1)
		if err := e.Commit(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("steady-state commit with zero watchers allocates %v per run, want 0", n)
	}
}

// TestWatchAPIMisuse covers the documented error paths and the anchor
// ownership rule.
func TestWatchAPIMisuse(t *testing.T) {
	q := MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	unbuilt, err := New(q, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unbuilt.Watch(WatchOptions{}); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Watch before Build: %v, want ErrNotBuilt", err)
	}
	if len(unbuilt.Views()) != 0 {
		t.Fatal("Views before Build should be empty")
	}

	e := mkTwoPath(t)
	defer e.Close()
	views := e.Views()
	if len(views) == 0 {
		t.Fatal("Views after Build is empty")
	}
	if _, err := e.Watch(WatchOptions{Views: []string{"no-such-view"}}); err == nil {
		t.Fatal("Watch with an unknown view name succeeded")
	}
	s, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.ViewRows("no-such-view"); err == nil {
		t.Fatal("ViewRows with an unknown view name succeeded")
	}

	// Anchor ownership: once taken, it survives the watcher's Close.
	w, err := e.Watch(WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	anchor := w.Snapshot()
	w.Close()
	if _, _, err := anchor.ViewRows(views[0]); err != nil {
		t.Fatalf("anchor died with the watcher: %v", err)
	}
	anchor.Close()
}

// nextEvent pulls one event off a watcher's stream: ranging Events again
// resumes where the last loop broke off.
func nextEvent(t *testing.T, w *Watcher) Event {
	t.Helper()
	for ev, err := range w.Events() {
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	t.Fatal("the event stream ended")
	return Event{}
}

// TestWatchFoldSingleUpdates drives single-tuple updates at ε = 0 and 0.5
// through enough volume to cross major-rebalance thresholds, growing and
// then shrinking, and checks at every epoch that folding the stream over
// the anchor equals a fresh snapshot of the engine.
func TestWatchFoldSingleUpdates(t *testing.T) {
	for _, eps := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("eps=%v", eps), func(t *testing.T) {
			e, err := New(MustParseQuery("Q(A, C) = R(A, B), S(B, C)"), Options{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.Build(); err != nil {
				t.Fatal(err)
			}
			views := e.Views()
			w, err := e.Watch(WatchOptions{Buffer: 1024})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			anchor := w.Snapshot()
			st := snapViewState(t, anchor, views)
			epoch := anchor.Epoch()
			anchor.Close()

			apply := func(rel string, row []int64, mult int64) {
				t.Helper()
				if err := e.Apply(rel, row, mult); err != nil {
					t.Fatal(err)
				}
				ev := nextEvent(t, w)
				if epoch++; ev.Epoch != epoch {
					t.Fatalf("epoch %d, want %d", ev.Epoch, epoch)
				}
				if err := st.applyEvent(ev); err != nil {
					t.Fatal(err)
				}
				s, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if err := st.diff(snapViewState(t, s, views)); err != nil {
					t.Fatalf("epoch %d: fold diverged: %v", ev.Epoch, err)
				}
			}
			for i := int64(0); i < 60; i++ {
				apply("R", []int64{i % 7, i % 5}, 1+i%2)
				apply("S", []int64{i % 5, i % 11}, 1)
			}
			for i := int64(59); i >= 0; i-- {
				apply("S", []int64{i % 5, i % 11}, -1)
			}
			if e.Stats().MajorRebalances == 0 {
				t.Fatal("the updates never crossed a major rebalance")
			}
		})
	}
}

// TestWatchEmptyCommitEvents checks that every commit yields one event with
// the next epoch, a commit whose ops net to zero included: its event has
// no deltas.
func TestWatchEmptyCommitEvents(t *testing.T) {
	e := mkTwoPath(t)
	defer e.Close()
	w, err := e.Watch(WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	anchor := w.Snapshot()
	epoch := anchor.Epoch()
	anchor.Close()

	b := e.NewBatch()
	commits := [][]wop{
		{{"R", []int64{100, 1}, 1}},
		{{"R", []int64{101, 2}, 1}, {"R", []int64{101, 2}, -1}},
		{{"S", []int64{1, 100}, 1}},
	}
	for i, ops := range commits {
		b.Reset()
		for _, op := range ops {
			b.Apply(op.rel, op.row, op.mult)
		}
		if err := e.Commit(b); err != nil {
			t.Fatal(err)
		}
		ev := nextEvent(t, w)
		if epoch++; ev.Epoch != epoch {
			t.Fatalf("commit %d: epoch %d, want %d", i, ev.Epoch, epoch)
		}
		if zeroNet := i == 1; zeroNet != (len(ev.Deltas) == 0) {
			t.Fatalf("commit %d: %d deltas, want none only for the zero-net commit", i, len(ev.Deltas))
		}
	}
}

// TestWatcherCloseAndRewatch checks a second Close is harmless, Events
// after Close ends at once, and once every watcher has left a new Watch
// streams again.
func TestWatcherCloseAndRewatch(t *testing.T) {
	e := mkTwoPath(t)
	defer e.Close()
	w, err := e.Watch(WatchOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("R", []int64{100, 1}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w.Close()
	for ev, err := range w.Events() {
		t.Fatalf("Events after Close yielded (%+v, %v)", ev, err)
	}

	w, err = e.Watch(WatchOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	anchor := w.Snapshot()
	defer anchor.Close()
	if err := e.Insert("R", []int64{101, 1}); err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, w); ev.Epoch != anchor.Epoch()+1 || len(ev.Deltas) == 0 {
		t.Fatalf("the new watcher's first event: epoch %d with %d deltas, want epoch %d with some", ev.Epoch, len(ev.Deltas), anchor.Epoch()+1)
	}
}
