package core

import (
	"sync"

	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

// Reader/writer epochs. Every committed write operation (Preprocess, each
// Update, each batch commit — major rebalances commit inside them)
// publishes a new epoch under the engine's writer lock. Snapshot, also
// under the lock, captures the epoch plus a frozen handle
// (relation.Freeze) for every relation enumeration can reach, so a
// snapshot always observes one committed state: the one before or the one
// after any concurrent batch, never a half-applied one.
//
// The frozen handles are shared through a per-epoch generation (snapGen):
// the first Snapshot call after a commit copies the node→relation slice,
// freezing every reachable relation once — O(#nodes), copying no data —
// and caches the generation on the engine; every further Snapshot at the
// same epoch just takes a reference, O(1). Each mutating operation invalidates
// the cached generation before its first relation write, releasing the
// pins immediately when no snapshot holds the generation — so an idle
// cache never forces copy-on-write on the writer. When the writer mutates
// a relation that open snapshots do pin, the relation detaches its storage
// copy-on-first-write (see internal/relation), and the snapshots keep
// reading the generation they pinned while ingestion proceeds. Closing the
// last snapshot of a stale generation releases its pins; a snapshot that
// is garbage-collected without Close costs at most one extra detach per
// relation (its generation's pins are dropped with it), after which the
// fresh generations start unpinned again.

// snapGen is one cached frozen-relation generation: a frozen copy of the
// engine's node→relation slice that every snapshot of one epoch enumerates
// through (nil for the nodes enumeration never reaches), plus the distinct
// frozen handles to release when the generation dies. refs counts open
// snapshots; stale is set when the engine moves past the generation's
// epoch. The pins are released by whoever drops the last interest — the
// writer (invalidateGenLocked) if no snapshot is open, else the closing of
// the last snapshot.
type snapGen struct {
	mu     sync.Mutex
	refs   int
	stale  bool
	pinned []*relation.Relation
	rels   []*relation.Relation
}

// release drops one snapshot's reference, releasing the generation's pins
// if it was the last reference to a stale generation.
func (g *snapGen) release() {
	g.mu.Lock()
	g.refs--
	free := g.refs == 0 && g.stale
	g.mu.Unlock()
	if free {
		for _, f := range g.pinned {
			f.Release()
		}
		g.pinned = nil
	}
}

// invalidateGenLocked retires the cached snapshot generation. Every
// mutating operation calls it under the writer lock BEFORE its first
// relation write: if no snapshot holds the generation the pins drop right
// here, so the mutation does not pay a copy-on-write detach for a
// generation nobody reads; otherwise the open snapshots keep the pins
// until the last of them closes.
func (e *Engine) invalidateGenLocked() {
	g := e.curGen
	if g == nil {
		return
	}
	e.curGen = nil
	g.mu.Lock()
	g.stale = true
	free := g.refs == 0
	g.mu.Unlock()
	if free {
		for _, f := range g.pinned {
			f.Release()
		}
		g.pinned = nil
	}
}

// Snapshot is an immutable view of one committed engine state. It
// enumerates with its own binding state, concurrently with Update and
// CommitBatch on the engine and with other snapshots; the Snapshot itself is
// not safe for concurrent use — take one snapshot per reader goroutine
// (snapshots of one epoch share their frozen storage, which is read-only).
// Close it when done so the writer can stop preserving its generation.
type Snapshot struct {
	e      *Engine
	epoch  uint64
	work   int64
	ctx    *enumCtx
	gen    *snapGen
	closed bool
}

// ctxList is the engine's free list of closed snapshots' contexts, capped at
// maxFreeCtxs. Its own mutex keeps Snapshot.Close, on any goroutine, off e.mu;
// a plain slice, unlike a sync.Pool, survives garbage collections.
type ctxList struct {
	mu   sync.Mutex
	list []*enumCtx
}

// maxFreeCtxs is the most snapshots bench/'s workloads hold open at once on
// one engine: svc-mixed and svc-durable reach 2, lib-skew and lib-grow 1.
const maxFreeCtxs = 2

// takeCtx returns a freed context, or a new one, over rels counting into work.
func (e *Engine) takeCtx(rels []*relation.Relation, work *int64) *enumCtx {
	l := &e.freeCtxs
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.list); n > 0 {
		c := l.list[n-1]
		l.list = l.list[:n-1]
		c.rels, c.work = rels, work
		return c
	}
	return e.newEnumCtx(rels, work)
}

// putCtx hands a context no iterator is open on back to the free list. Its
// trees point into no relation (Iterator.Close made them forget).
func (e *Engine) putCtx(c *enumCtx) {
	c.rels, c.work = nil, nil
	l := &e.freeCtxs
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.list) < maxFreeCtxs {
		l.list = append(l.list, c)
	}
}

// Snapshot captures a read-only view of the current committed state. It
// may be called from any goroutine; if a batch is in flight, it blocks
// until the batch commits. The first capture after a commit freezes every
// reachable relation once; further captures at the same epoch reuse the
// cached generation and are O(1). The capture copies no tuples either way.
func (e *Engine) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.preprocessed {
		// The one panicking entry point of the read path (documented on the
		// public All/Count): recover sees ErrNotBuilt itself.
		panic(ErrNotBuilt)
	}
	return e.snapshotLocked()
}

// snapshotLocked captures a snapshot with the writer lock already held and
// the engine known to be preprocessed; SubscribeCommits uses it to take the
// anchor under the same hold that installs the sink.
func (e *Engine) snapshotLocked() *Snapshot {
	g := e.curGen
	if g == nil {
		g = &snapGen{rels: make([]*relation.Relation, len(e.rels))}
		for id := range e.info {
			first := e.info[id].frozenAs
			if first == id {
				g.rels[id] = e.rels[id].Freeze()
				g.pinned = append(g.pinned, g.rels[id])
			} else if first >= 0 {
				g.rels[id] = g.rels[first]
			}
		}
		e.curGen = g
	}
	g.mu.Lock()
	g.refs++
	g.mu.Unlock()
	s := &Snapshot{e: e, epoch: e.epoch, gen: g}
	s.ctx = e.takeCtx(g.rels, &s.work)
	return s
}

// Epoch identifies the committed state the snapshot observes: the number of
// committed write operations at capture time (see Engine.Epoch).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Result opens an iterator over the snapshot's state. Unlike Engine.Result,
// the iterator stays valid while the engine keeps updating.
func (s *Snapshot) Result() *Iterator {
	if s.closed {
		panic("core: Result on a closed Snapshot")
	}
	return s.ctx.result()
}

// Enumerate calls yield for every distinct result tuple of the snapshot's
// state with its multiplicity, stopping early if yield returns false.
func (s *Snapshot) Enumerate(yield func(t tuple.Tuple, m int64) bool) {
	s.Result().drain(yield)
}

// Work returns the snapshot's cumulative enumeration-operation count (the
// same machine-independent delay proxy as Engine.Work, but private to this
// snapshot's readers).
func (s *Snapshot) Work() int64 { return s.work }

// Close drops the snapshot's reference on its generation; when the last
// snapshot of a superseded generation closes, the generation's pins are
// released and the writer can mutate those relations in place again. With no
// iterator open, its context goes to the engine's free list. It is
// idempotent; the snapshot must not be used afterwards.
func (s *Snapshot) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.gen.release()
	if s.ctx.open == 0 {
		s.e.putCtx(s.ctx)
	}
}
