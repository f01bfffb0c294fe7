package ivmeps

import (
	"errors"
	"fmt"
	"iter"
	"sync"

	"ivmeps/internal/core"
	"ivmeps/internal/tuple"
	"ivmeps/internal/watch"
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
type ViewDelta struct {
	View  string    `json:"view"`
	Rows  [][]int64 `json:"rows"`
	Mults []int64   `json:"mults"`
}

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
type Watcher struct {
	sub    *watch.Sub
	filter map[string]bool

	mu          sync.Mutex
	anchor      *Snapshot
	anchorTaken bool

	// Per-yield conversion arenas, reused across events (Event contents
	// are valid until the next iteration step; copy to retain).
	evDeltas []ViewDelta
	rowBuf   [][]int64
}

// Watch subscribes to the engine's commit stream. The returned watcher is
// anchored at the current committed state: its Snapshot observes epoch E,
// and its Events deliver every commit with epoch > E — the anchor and the
// subscription are captured atomically, so the stream has no gap and no
// overlap with the snapshot. Watch before Build returns ErrNotBuilt.
//
// Watchers are independent: any number may be open, each with its own
// anchor, buffer, and view filter, and a slow watcher is evicted without
// affecting the others. While no watcher is open the commit path does no
// capture work at all.
func (e *Engine) Watch(opts WatchOptions) (*Watcher, error) {
	if !e.built {
		return nil, fmt.Errorf("ivmeps: Watch: %w (call Build first)", ErrNotBuilt)
	}
	var filter map[string]bool
	if opts.Views != nil {
		filter = make(map[string]bool, len(opts.Views))
		known := e.e.RootViews()
		for _, v := range opts.Views {
			ok := false
			for _, k := range known {
				if k == v {
					ok = true
					break
				}
			}
			if !ok {
				return nil, fmt.Errorf("ivmeps: Watch: unknown view %q (Engine.Views lists the root views)", v)
			}
			filter[v] = true
		}
	}
	sub, snap, err := watch.Subscribe(e.e, opts.Buffer)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &Watcher{sub: sub, filter: filter, anchor: &Snapshot{snapshotReader[*core.Snapshot]{snap}}}, nil
}

// Views returns the engine-assigned names of the root views — the View
// names carried by watch events and accepted by WatchOptions.Views and
// Snapshot.ViewRows, one per materialized view tree, in a fixed order.
// Empty before Build.
func (e *Engine) Views() []string { return e.e.RootViews() }

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
// epochs are consecutive from there. An event's Deltas, rows, and mults are
// valid only until the next iteration step — copy them to retain.
//
// The iteration ends when the watcher is closed (silently) or when the
// watcher is evicted for lagging: then exactly one final pair with a
// non-nil error — a WatcherLaggedError naming the missed epochs, after
// every buffered event has been delivered — is yielded first. Breaking out
// of the loop does not close the watcher; calling Events again resumes the
// stream where it stopped.
func (w *Watcher) Events() iter.Seq2[Event, error] {
	return func(yield func(Event, error) bool) {
		for {
			cd, err := w.sub.Next()
			if err != nil {
				if !errors.Is(err, watch.ErrClosed) {
					yield(Event{}, wrapErr(err))
				}
				return
			}
			ev := w.convert(cd)
			ok := yield(ev, nil)
			cd.Release()
			if !ok {
				return
			}
		}
	}
}

// convert reshapes a shared commit record into the public Event form,
// applying the view filter. The Deltas and row slices live in the
// watcher's reused arenas; the row storage itself aliases the record's
// (released only after the yield returns).
func (w *Watcher) convert(cd *core.CommitDelta) Event {
	deltas := w.evDeltas[:0]
	rows := w.rowBuf[:0]
	total := 0
	for i := range cd.Views {
		if w.filter == nil || w.filter[cd.Views[i].View] {
			total += len(cd.Views[i].Rows)
		}
	}
	if cap(rows) < total {
		rows = make([][]int64, 0, total)
	}
	for i := range cd.Views {
		vd := &cd.Views[i]
		if w.filter != nil && !w.filter[vd.View] {
			continue
		}
		start := len(rows)
		for _, t := range vd.Rows {
			rows = append(rows, []int64(t))
		}
		deltas = append(deltas, ViewDelta{
			View:  vd.View,
			Rows:  rows[start:len(rows):len(rows)],
			Mults: vd.Mults,
		})
	}
	w.evDeltas, w.rowBuf = deltas, rows
	return Event{Epoch: cd.Epoch, Deltas: deltas}
}

// Close ends the subscription: a blocked or future Events iteration
// returns, the watcher stops occupying writer-side resources, and — unless
// Snapshot transferred it — the anchor snapshot is released. Idempotent
// and safe from any goroutine.
func (w *Watcher) Close() {
	w.sub.Close()
	w.mu.Lock()
	taken := w.anchorTaken
	w.anchorTaken = true
	w.mu.Unlock()
	if !taken {
		w.anchor.Close()
	}
}

// ViewRows returns one root view's rows and multiplicities in the
// snapshot's committed state (see Engine.Views for the names). The
// returned slices are fresh copies owned by the caller. Folding watch
// deltas over the anchor's ViewRows reproduces ViewRows at every later
// epoch.
func (s *Snapshot) ViewRows(view string) (rows [][]int64, mults []int64, err error) {
	var vals []int64
	ok := s.s.ViewForEach(view, func(t tuple.Tuple, m int64) {
		vals = append(vals, t...)
		mults = append(mults, m)
	})
	if !ok {
		return nil, nil, fmt.Errorf("ivmeps: ViewRows: unknown view %q (Engine.Views lists the root views)", view)
	}
	return carveRows(vals, len(mults)), mults, nil
}
