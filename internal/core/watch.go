package core

import (
	"fmt"
	"iter"
	"slices"
	"sync/atomic"

	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// Commit-delta capture. During propagation the engine already materializes
// the exact delta of every root view — the rows the final path edge applies
// — and then discards it. This file captures those rows at the commit point
// into a pooled, epoch-stamped CommitDelta record and hands it to every
// subscribed CommitSink under the writer lock, so each sink's record stream
// is totally ordered by epoch with no gaps: every commit publishes exactly
// one record (possibly with no view changes), and record N+1 is the state
// diff from the state record N left behind. The sinks are the subscribers
// themselves (the public Watcher is one): the engine keeps them in a slice
// guarded by the writer lock, so a sink's lock, if it has one, is always
// taken after the engine's.
//
// Capture is pay-as-you-go: with no sink subscribed the only cost on the
// commit path is one nil check, which keeps the steady-state zero-alloc
// guarantee of the update and batch paths intact. With a sink subscribed,
// each main tree owns one capture slot (a pooled delta aggregating by
// tuple).
//
// Three capture sites cover every way a root view changes:
//
//   - propagatePath: the rows the final edge applies to the root view ARE
//     the root delta (the common case, including minor rebalances and
//     indicator propagation, which reuse the same paths);
//   - root-is-leaf trees (a tree whose root is an Atom or LightAtom leaf
//     has no edges): the input delta itself is the root delta;
//   - majorRebalance: materializeAll refills views in place, bypassing
//     propagation, so the slots take a pre-pass (−m per root row) and a
//     post-pass (+m); aggregation nets the pair to the exact diff.

// ViewDelta is the per-commit change of one root view: Rows[i] changed
// multiplicity by Mults[i] (never zero). Rows within one ViewDelta are
// distinct.
type ViewDelta struct {
	View  string
	Rows  [][]int64
	Mults []int64
}

// CommitDelta is the root-view diff published by one commit: applying every
// ViewDelta to the state as of epoch Epoch−1 yields the state as of Epoch.
// Commits that changed no root view publish an empty Views slice, so
// consecutive records always have consecutive epochs.
//
// Records are pooled and reference-counted: the engine publishes each
// record with one reference held for the duration of the sink call; a sink
// that hands the record to consumers must Retain once per handoff, and
// every holder Releases at most once: the last Release recycles the record,
// and one a holder drops unreleased is left to the GC. The record's
// contents (including the row storage behind Rows) are shaped once per
// commit, shared by every sink, immutable until the last Release, and
// recycled after it.
type CommitDelta struct {
	Epoch uint64
	Views []ViewDelta

	refs atomic.Int32
	free chan *CommitDelta

	// Record-owned backing storage: rows/mults arenas subsliced per view,
	// and one flat value buffer behind every row. Capacities survive
	// recycling, so a warmed publish path allocates nothing.
	buf   []int64
	rows  [][]int64
	mults []int64
}

// Retain adds one reference to the record. Safe from any goroutine.
func (cd *CommitDelta) Retain() { cd.refs.Add(1) }

// Release drops one reference; the last Release recycles the record. Safe
// from any goroutine.
func (cd *CommitDelta) Release() {
	if cd.refs.Add(-1) != 0 {
		return
	}
	cd.Epoch = 0
	cd.Views = cd.Views[:0]
	cd.buf = cd.buf[:0]
	cd.rows = cd.rows[:0]
	cd.mults = cd.mults[:0]
	select {
	case cd.free <- cd:
	default: // freelist full: let the GC take this one
	}
}

// CommitSink consumes the engine's per-commit root-view delta records.
// PublishCommit is called under the engine's writer lock, once per commit,
// in strictly increasing epoch order. The sink must not block, must not
// call back into the engine, and must Retain the record before sharing it
// beyond the call (the engine's own reference dies when the call returns).
// UnsubscribeCommits finds a sink with ==, so a sink that is ever
// unsubscribed must be of a comparable type — in practice a pointer.
type CommitSink interface {
	PublishCommit(cd *CommitDelta)
}

// rootView is one main-tree root: the engine-assigned view name exposed by
// RootViews/Snapshot.View/commit deltas, and the node whose relation holds
// the view's content.
type rootView struct {
	name string
	node *viewtree.Node
}

// buildRootsLocked names the main-tree roots, in forest order (the same
// order buildRoutes numbers the main trees, so root i ↔ tree id i). Root
// node names are unique per view-tree builder, but a builder may reuse one
// subtree as the root of several trees; duplicates get a "#n" suffix so
// names stay unique and stable.
func (e *Engine) buildRootsLocked() {
	trees := e.forest.Trees()
	e.roots = make([]rootView, len(trees))
	e.rootIdx = make(map[string]int, len(trees))
	for i, tr := range trees {
		name := tr.Name
		if _, dup := e.rootIdx[name]; dup {
			name = fmt.Sprintf("%s#%d", name, i+1)
		}
		e.roots[i] = rootView{name: name, node: tr}
		e.rootIdx[name] = i
	}
}

// RootViews returns the engine-assigned names of the root views, one per
// main view tree, in a fixed order. These are the View names appearing in
// CommitDelta records and accepted by Snapshot.View. Empty before
// Preprocess.
func (e *Engine) RootViews() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.roots))
	for i := range e.roots {
		out[i] = e.roots[i].name
	}
	return out
}

// View returns an iterator over the rows of one root view in the
// snapshot's frozen state, with their multiplicities, and reports whether
// the view name is known. A yielded tuple is the snapshot's own storage:
// read-only, and valid only until the next step. The snapshot must stay
// open while the iterator is ranged.
func (s *Snapshot) View(view string) (iter.Seq2[tuple.Tuple, int64], bool) {
	if s.closed {
		panic("core: View on a closed Snapshot")
	}
	i, ok := s.e.rootIdx[view]
	if !ok {
		return nil, false
	}
	rel := s.ctx.rels[s.e.roots[i].node.ID]
	return func(yield func(tuple.Tuple, int64) bool) { rel.ForEachUntil(yield) }, true
}

// captureSet is the per-commit capture state: one slot (an aggregating
// delta) per main tree, indexed by the tree's dense id, filled by
// propagation and drained by publishCommitLocked under the writer lock.
type captureSet struct {
	roots []rootView
	slots []delta
}

// setCaptureLocked arms capture (e.capture = e.capSet, allocated on first
// use) or disarms it, clearing the slots.
func (e *Engine) setCaptureLocked(on bool) {
	if !on {
		if e.capSet != nil {
			for i := range e.capSet.slots {
				e.capSet.slots[i].reset()
			}
		}
		e.capture = nil
		return
	}
	if e.capSet == nil {
		e.capSet = &captureSet{roots: e.roots, slots: make([]delta, len(e.roots))}
	}
	e.capture = e.capSet
}

// captureRebalanceDiff runs around majorRebalance's materializeAll: the
// pre-pass adds every root row with −m, the post-pass with +m; rows the
// rebalance left unchanged cancel out in the slot's aggregation. Atom roots
// are skipped — materializeAll never changes base relations.
func (cs *captureSet) captureRebalanceDiff(e *Engine, sign int64) {
	for i := range cs.slots {
		root := cs.roots[i].node
		if root.Kind == viewtree.Atom {
			continue
		}
		sl := &cs.slots[i]
		e.rels[root.ID].ForEach(func(t tuple.Tuple, m int64) {
			sl.add(t, sign*m)
		})
	}
}

// SubscribeCommits adds sink to the engine's commit sinks and captures its
// anchor under one writer-lock hold: the returned Snapshot observes the
// committed state at some epoch E, and the sink then receives every commit
// with epoch > E, gap-free. Any number of sinks may be subscribed, each
// with its own anchor; capture is armed while at least one is. The caller
// owns the Snapshot and must Close it.
func (e *Engine) SubscribeCommits(sink CommitSink) (*Snapshot, error) {
	if sink == nil {
		return nil, fmt.Errorf("core: SubscribeCommits: nil sink")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.preprocessed {
		return nil, fmt.Errorf("core: SubscribeCommits: %w (run Preprocess first)", ErrNotBuilt)
	}
	s := e.snapshotLocked()
	if len(e.sinks) == 0 {
		if e.cdFree == nil {
			e.cdFree = make(chan *CommitDelta, commitDeltaFreelist)
		}
		e.setCaptureLocked(true)
	}
	e.sinks = append(e.sinks, sink)
	return s, nil
}

// commitDeltaFreelist bounds the engine's record pool. In steady state at
// most a handful of records are in flight per subscriber ring slot; records
// beyond the bound fall to the GC.
const commitDeltaFreelist = 256

// UnsubscribeCommits removes sink — after it returns the sink receives no
// further commit — and disarms capture when it was the last one, returning
// the commit path to its zero-overhead state. A sink that is not
// subscribed is ignored, so the call is idempotent.
func (e *Engine) UnsubscribeCommits(sink CommitSink) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i := slices.Index(e.sinks, sink)
	if i < 0 {
		return
	}
	e.sinks = slices.Delete(e.sinks, i, i+1)
	if len(e.sinks) == 0 {
		e.setCaptureLocked(false)
	}
}

// publishCommitLocked drains the capture slots into a pooled record for the
// epoch just published (e.epoch) and hands it to every sink. Called at every
// commit point, right after the epoch bump, under the writer lock.
func (e *Engine) publishCommitLocked() {
	cs := e.capture
	if cs == nil {
		return
	}
	var cd *CommitDelta
	select {
	case cd = <-e.cdFree:
	default:
		cd = &CommitDelta{free: e.cdFree}
	}
	// Pre-size the arenas so the fill pass never relocates a buffer a
	// ViewDelta already points into.
	nVals, nRows := 0, 0
	for i := range cs.slots {
		for j := range cs.slots[i].rows {
			if cs.slots[i].rows[j].m != 0 {
				nVals += len(cs.slots[i].rows[j].t)
				nRows++
			}
		}
	}
	if cap(cd.buf) < nVals {
		cd.buf = make([]int64, 0, nVals)
	}
	if cap(cd.rows) < nRows {
		cd.rows = make([][]int64, 0, nRows)
	}
	if cap(cd.mults) < nRows {
		cd.mults = make([]int64, 0, nRows)
	}
	cd.Epoch = e.epoch
	for i := range cs.slots {
		sl := &cs.slots[i]
		start := len(cd.rows)
		for j := range sl.rows {
			w := &sl.rows[j]
			if w.m == 0 {
				continue
			}
			off := len(cd.buf)
			cd.buf = append(cd.buf, w.t...)
			cd.rows = append(cd.rows, cd.buf[off:len(cd.buf):len(cd.buf)])
			cd.mults = append(cd.mults, w.m)
		}
		if len(cd.rows) > start {
			cd.Views = append(cd.Views, ViewDelta{
				View:  cs.roots[i].name,
				Rows:  cd.rows[start:len(cd.rows):len(cd.rows)],
				Mults: cd.mults[start:len(cd.mults):len(cd.mults)],
			})
		}
		sl.reset()
	}
	cd.refs.Store(1)
	for _, sink := range e.sinks {
		sink.PublishCommit(cd)
	}
	cd.Release()
}
