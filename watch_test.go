package ivmeps

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// Tests for the Watch surface's lifecycle. The fold property — every
// watcher's delta stream folded over its anchor equals the engine's root
// views at every epoch, eviction with the exact gap included — is driven
// from scenario_test.go (TestWatchDeltaEqualsSnapshotDiff,
// TestWatchFoldSingleUpdates, TestWatchSlowConsumerEviction). These pin
// Close during in-flight commits (no deadlock, no leaked goroutines), the
// zero-alloc commit path once every watcher is gone, empty commits, and the
// API's error paths.

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

	commits := []*Batch{
		e.NewBatch().Insert("R", []int64{100, 1}),
		e.NewBatch().Insert("R", []int64{101, 2}).Delete("R", []int64{101, 2}),
		e.NewBatch().Insert("S", []int64{1, 100}),
	}
	for i, b := range commits {
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
