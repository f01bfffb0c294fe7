package ivmeps

import (
	"fmt"
	"iter"
	"slices"
	"sync"

	"ivmeps/internal/core"
	"ivmeps/internal/federation"
	"ivmeps/internal/tuple"
)

// Watching: per-commit view-delta streaming. Engine.Watch returns a
// Watcher anchored at a snapshot of the current committed state; the
// watcher's event stream then carries the root-view delta of every
// subsequent commit, in commit (epoch) order with no gaps, so folding the
// deltas over the anchor reproduces the engine's state at every delivered
// epoch. Fan-out is non-blocking for the writer: each watcher owns a
// bounded buffer, and a watcher that falls more commits behind than its
// buffer holds is evicted with a WatcherLaggedError naming the exact
// epochs it missed — other watchers, and the writer, are unaffected.

// DefaultWatchBuffer is the event buffer used when WatchOptions.Buffer is
// non-positive: how many commits a watcher may fall behind the writer
// before it is evicted from the stream.
const DefaultWatchBuffer = 64

// WatchOptions configures Engine.Watch.
type WatchOptions struct {
	// Views restricts the stream to the named root views (see
	// Engine.Views). Nil means all views. Unknown names are rejected by
	// Watch. Filtering applies to event contents only — every commit still
	// occupies one buffer slot, so a filtered watcher must keep up with the
	// full commit rate.
	Views []string

	// Buffer is the per-watcher event-buffer capacity in commits;
	// non-positive means DefaultWatchBuffer. A watcher more than Buffer
	// commits behind the writer is evicted (WatcherLaggedError).
	Buffer int
}

// ViewDelta is the change of one root view in one commit: row Rows[i]
// changed multiplicity by Mults[i] (never zero). Rows within one ViewDelta
// are distinct.
type ViewDelta = core.ViewDelta

// Event is the root-view diff published by one commit: applying every
// delta to the state as of epoch Epoch−1 yields the state as of Epoch.
// Commits that changed none of the watcher's views still produce an Event
// with an empty Deltas, so delivered epochs are always consecutive.
type Event struct {
	Epoch  uint64
	Deltas []ViewDelta
}

// Watcher is one live subscription to the engine's commit stream: an
// anchor Snapshot plus every later commit's delta, in order. Events and
// Snapshot are for a single consumer goroutine; Close may be called from
// any goroutine, concurrently with an in-flight iteration.
//
// The Watcher is itself one of the engine's commit sinks (watcherSink):
// the committer hands it every record, under the engine's one writer lock
// (the federation's Fed.mu), and it takes the record into its ring — a
// buffered channel of shared, reference-counted records — without ever
// blocking. Lock order is Fed.mu → Watcher.mu; Close and Events let go of
// mu before they call the engine.
type Watcher struct {
	f      *federation.Fed
	filter map[string]bool
	ring   chan *core.CommitDelta
	done   chan struct{} // closed by Close

	mu          sync.Mutex
	lag         *WatcherLaggedError // set at eviction; grows until unsubscribed
	closed      bool
	anchor      *Snapshot
	anchorTaken bool

	// evDeltas is the per-yield Deltas arena, reused across events (Event
	// contents are valid until the next iteration step; copy to retain).
	evDeltas []ViewDelta
}

// watcherSink is the Watcher as a core.CommitSink, so that PublishCommit
// stays out of the Watcher's public method set.
type watcherSink Watcher

// Watch subscribes to the engine's commit stream. The returned watcher is
// anchored at the current committed state: its Snapshot observes epoch E,
// and its Events deliver every commit with epoch > E — the anchor and the
// subscription are captured atomically, so the stream has no gap and no
// overlap with the snapshot. Watch before Build returns ErrNotBuilt, and
// Watch on an engine of K > 1 shards (NewSharded) returns an error: its
// shards' commit streams are not merged into one.
//
// Watchers are independent: any number may be open, each with its own
// anchor, buffer, and view filter, and a slow watcher is evicted without
// affecting the others. While no watcher is open the commit path does no
// capture work at all.
func (e *Engine) Watch(opts WatchOptions) (*Watcher, error) {
	if !e.built {
		return nil, fmt.Errorf("ivmeps: Watch: %w (call Build first)", ErrNotBuilt)
	}
	if k := e.f.Shards(); k > 1 {
		return nil, fmt.Errorf("ivmeps: Watch needs one shard, not %d: the shards' commit streams are not merged", k)
	}
	var filter map[string]bool
	if opts.Views != nil {
		filter = make(map[string]bool, len(opts.Views))
		known := e.f.RootViews()
		for _, v := range opts.Views {
			if !slices.Contains(known, v) {
				return nil, fmt.Errorf("ivmeps: Watch: unknown view %q (Engine.Views lists the root views)", v)
			}
			filter[v] = true
		}
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = DefaultWatchBuffer
	}
	w := &Watcher{f: e.f, filter: filter, ring: make(chan *core.CommitDelta, buffer), done: make(chan struct{})}
	w.anchor = new(Snapshot)
	if err := e.f.SubscribeCommits((*watcherSink)(w), &w.anchor.f); err != nil {
		return nil, err
	}
	return w, nil
}

// PublishCommit implements core.CommitSink: it runs on the committer's
// goroutine under Fed.mu, the engine's writer lock, once per commit in
// epoch order.
// Delivery is one non-blocking ring send; a full ring evicts the watcher
// (close the ring, start the gap), and an evicted one just extends its gap
// until its consumer notices.
func (s *watcherSink) PublishCommit(cd *core.CommitDelta) {
	w := (*Watcher)(s)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.lag != nil {
		w.lag.To = cd.Epoch
		return
	}
	cd.Retain()
	select {
	case w.ring <- cd:
	default:
		cd.Release()
		w.lag = &WatcherLaggedError{From: cd.Epoch, To: cd.Epoch}
		// Sends and this close all happen here, under Fed.mu, and the lag
		// above gates every later publish: the ring is never sent to
		// again. The consumer drains the buffered prefix, then
		// sees the close.
		close(w.ring)
	}
}

// Views returns the engine-assigned names of the root views — the View
// names carried by watch events and accepted by WatchOptions.Views,
// Snapshot.ViewAll and Snapshot.ViewRows, one per materialized view tree,
// in a fixed order. Empty before Build, and on a sharded engine, which
// exposes no root views.
func (e *Engine) Views() []string { return e.f.RootViews() }

// Snapshot returns the watcher's anchor: the committed state immediately
// before the first event of the stream. The first call transfers ownership
// to the caller, who must Close it; if Snapshot is never called, the
// watcher's Close releases the anchor.
func (w *Watcher) Snapshot() *Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.anchorTaken = true
	return w.anchor
}

// Events iterates the watcher's commit stream in epoch order, blocking
// between commits. The first event's epoch is the anchor's epoch + 1, and
// epochs are consecutive from there. An event's Deltas are valid only until
// the next iteration step, and its rows and mults are shared with every
// watcher of the commit: read them only, and copy them to retain.
//
// The iteration ends when the watcher is closed (silently) or when the
// watcher is evicted for lagging: then exactly one final pair with a
// non-nil error — a WatcherLaggedError naming the missed epochs, after
// every buffered event has been delivered — is yielded first. Breaking out
// of the loop does not close the watcher; calling Events again resumes the
// stream where it stopped, or reports the same gap.
func (w *Watcher) Events() iter.Seq2[Event, error] {
	return func(yield func(Event, error) bool) {
		for {
			select {
			case cd, ok := <-w.ring:
				if !ok {
					// Evicted, buffered prefix consumed. Unsubscribe first so
					// the publisher stops extending the gap, then read it.
					w.f.UnsubscribeCommits((*watcherSink)(w))
					w.mu.Lock()
					lag := *w.lag
					w.mu.Unlock()
					yield(Event{}, &lag)
					return
				}
				select {
				case <-w.done: // closed: nothing more is yielded
					cd.Release()
					return
				default:
				}
				ok = yield(w.convert(cd), nil)
				cd.Release()
				if !ok {
					return
				}
			case <-w.done:
				return
			}
		}
	}
}

// convert shapes a shared commit record into an Event, applying the view
// filter. Only the Deltas headers are the watcher's (a reused arena); the
// rows and mults are the record's (released only after the yield returns).
func (w *Watcher) convert(cd *core.CommitDelta) Event {
	deltas := w.evDeltas[:0]
	for _, vd := range cd.Views {
		if w.filter == nil || w.filter[vd.View] {
			deltas = append(deltas, vd)
		}
	}
	w.evDeltas = deltas
	return Event{Epoch: cd.Epoch, Deltas: deltas}
}

// Close ends the subscription: a blocked or future Events iteration
// returns, the watcher stops occupying writer-side resources, and — unless
// Snapshot transferred it — the anchor snapshot is released. Idempotent
// and safe from any goroutine. Events is the ring's only receiver: records
// still buffered are left to the GC rather than recycled.
func (w *Watcher) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	taken := w.anchorTaken
	w.anchorTaken = true
	w.mu.Unlock()
	w.f.UnsubscribeCommits((*watcherSink)(w))
	close(w.done)
	if !taken {
		w.anchor.Close()
	}
}

// ViewAll returns an iterator over one root view's rows and
// multiplicities in the snapshot's committed state (see Engine.Views for
// the names), for use with range. A yielded row is the snapshot's own
// storage: read it only, and copy it to retain past the iteration step.
// The snapshot must stay open while the iterator is ranged.
func (s *Snapshot) ViewAll(view string) (iter.Seq2[[]int64, int64], error) {
	seq, ok := s.f.View(view) // a sharded engine's snapshot has no views
	if !ok {
		return nil, fmt.Errorf("ivmeps: unknown view %q (Engine.Views lists the root views)", view)
	}
	return func(yield func([]int64, int64) bool) {
		seq(func(t tuple.Tuple, m int64) bool { return yield(t, m) })
	}, nil
}

// ViewRows returns one root view's rows and multiplicities in the
// snapshot's committed state (see Engine.Views for the names): ViewAll,
// collected. The returned slices are fresh copies owned by the caller.
// Folding watch deltas over the anchor's ViewRows reproduces ViewRows at
// every later epoch.
func (s *Snapshot) ViewRows(view string) (rows [][]int64, mults []int64, err error) {
	seq, err := s.ViewAll(view)
	if err != nil {
		return nil, nil, err
	}
	rows, mults = collect(seq)
	return rows, mults, nil
}
