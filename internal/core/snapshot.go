package core

import (
	"sync"

	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

// Reader/writer epochs. Every committed write operation (Preprocess, each
// Update, each batch commit — major rebalances commit inside them)
// publishes a new epoch under the engine's writer lock. SnapshotInto, also
// under the lock, captures the epoch plus a frozen handle
// (relation.FreezeInto) for every relation enumeration can reach, so a
// snapshot always observes one committed state: the one before or the one
// after any concurrent batch, never a half-applied one.
//
// The frozen handles are shared through a per-epoch generation (snapGen):
// the first capture after a commit pins every reachable relation once —
// O(#nodes), copying no data — and caches the generation on the engine;
// every further capture at the same epoch just takes a reference, O(1).
// Each mutating operation invalidates the cached generation before its
// first relation write, releasing the pins immediately when no snapshot
// holds the generation — so an idle cache never forces copy-on-write on
// the writer. When the writer mutates a relation that open snapshots do
// pin, the relation detaches its storage copy-on-first-write (see
// internal/relation), and the snapshots keep reading the generation they
// pinned while ingestion proceeds. Closing the last snapshot of a stale
// generation releases its pins.
//
// A generation whose pins are released is recycled: it goes to the
// engine's spare slot (spareGen), and the first capture at a later epoch
// takes it and re-pins each of its frozen handles onto the relation's
// current store, so a read at a new epoch allocates nothing. Release makes
// a handle forget its store, so a free-listed generation keeps no retired
// store reachable. A snapshot closed while one of its iterators is still
// open keeps its reference, so that iterator goes on reading the epoch it
// opened at and its generation is never recycled under it: the garbage
// collector drops the generation, as it does a snapshot never closed, and
// either costs at most one extra detach per relation it pinned, after
// which the fresh generations start unpinned again.

// snapGen is one frozen-relation generation: a frozen copy of the engine's
// node→relation slice that every snapshot of one epoch enumerates through
// (nil for the nodes enumeration never reaches), plus the distinct frozen
// handles to release when the generation dies. refs counts the snapshots
// holding it; stale is set when the engine moves past the generation's
// epoch. The pins are released by whoever drops the last interest — the
// writer (invalidateGenLocked) if no snapshot holds it, else the closing of
// the last snapshot — and the generation, its handles and both slices kept
// for the next epoch, goes to the engine's spare slot.
type snapGen struct {
	mu     sync.Mutex
	refs   int
	stale  bool
	pinned []*relation.Relation
	rels   []*relation.Relation
}

// releaseGen drops one snapshot's reference on g, retiring g if it was the
// last reference to a stale generation.
func (e *Engine) releaseGen(g *snapGen) {
	g.mu.Lock()
	g.refs--
	free := g.refs == 0 && g.stale
	g.mu.Unlock()
	if free {
		e.retireGen(g)
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
		e.retireGen(g)
	}
}

// retireGen releases the pins of a generation nothing reads any more — its
// handles forget their stores — and leaves it in the engine's spare slot
// unless a generation already waits there. One slot is the most bench/'s
// workloads use: a generation is retired at most once per epoch and taken
// by the next epoch's first capture, and the peak number waiting for reuse
// on one engine is 1 on all four.
func (e *Engine) retireGen(g *snapGen) {
	for _, f := range g.pinned {
		f.Release()
	}
	g.refs, g.stale = 0, false
	e.spareGen.CompareAndSwap(nil, g)
}

// takeGen returns the spare retired generation, or a new one sized for e.
func (e *Engine) takeGen() *snapGen {
	if g := e.spareGen.Swap(nil); g != nil {
		return g
	}
	return &snapGen{rels: make([]*relation.Relation, len(e.rels))}
}

// Snapshot is an immutable view of one committed engine state. It
// enumerates with its own binding state, concurrently with Update and
// CommitBatch on the engine and with other snapshots; the Snapshot itself is
// not safe for concurrent use — take one snapshot per reader goroutine
// (snapshots of one epoch share their frozen storage, which is read-only).
// Close it when done so the writer can stop preserving its generation. A
// Snapshot must not be copied: closing a copy too would release its
// generation and free its context twice.
type Snapshot struct {
	_      noCopy
	e      *Engine
	epoch  uint64
	ctx    *enumCtx
	gen    *snapGen
	closed bool
}

// noCopy makes go vet's copylocks check report a copied Snapshot.
type noCopy struct{}

// Lock and Unlock do nothing: copylocks looks for them.
func (*noCopy) Lock() {}

// Unlock does nothing; see Lock.
func (*noCopy) Unlock() {}

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

// takeCtx returns a freed context, or a new one, over rels with its work
// counter at zero.
func (e *Engine) takeCtx(rels []*relation.Relation) *enumCtx {
	l := &e.freeCtxs
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.list); n > 0 {
		c := l.list[n-1]
		l.list = l.list[:n-1]
		c.rels, c.work = rels, 0
		return c
	}
	return e.newEnumCtx(rels)
}

// putCtx hands a context no iterator is open on back to the free list. Its
// trees point into no relation (Iterator.Close made them forget).
func (e *Engine) putCtx(c *enumCtx) {
	c.rels = nil
	l := &e.freeCtxs
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.list) < maxFreeCtxs {
		l.list = append(l.list, c)
	}
}

// SnapshotInto captures a read-only view of the current committed state
// into s, which must not hold an open snapshot: a caller that keeps s on
// its stack reads without allocating, and one that holds a handle
// allocates only the handle. It may be called from any goroutine; if a
// batch is in flight, it blocks until the batch commits. The first capture
// after a commit pins every reachable relation once, re-pinning a retired
// generation's handles; further captures at the same epoch reuse the cached
// generation and are O(1). The capture copies no tuples either way.
func (e *Engine) SnapshotInto(s *Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.preprocessed {
		// The one panicking entry point of the read path (documented on the
		// public All/Count): recover sees ErrNotBuilt itself.
		panic(ErrNotBuilt)
	}
	e.snapshotLocked(s)
}

// snapshotLocked captures into s with the writer lock already held and the
// engine known to be preprocessed; SubscribeCommits uses it to take the
// anchor under the same hold that installs the sink.
func (e *Engine) snapshotLocked(s *Snapshot) {
	g := e.curGen
	if g == nil {
		g = e.takeGen()
		g.pinned = g.pinned[:0]
		for id := range e.info {
			first := e.info[id].frozenAs
			if first == id {
				g.rels[id] = e.rels[id].FreezeInto(g.rels[id])
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
	*s = Snapshot{e: e, epoch: e.epoch, gen: g, ctx: e.takeCtx(g.rels)}
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
func (s *Snapshot) Work() int64 { return s.ctx.work }

// Close drops the snapshot's reference on its generation; when the last
// snapshot of a superseded generation closes, the generation's pins are
// released, the writer can mutate those relations in place again, and the
// generation is recycled. Its context goes to the engine's free list. A
// snapshot closed while one of its iterators is open keeps both instead, so
// the iterator still reads the snapshot's epoch; it is dropped with them
// (see the package comment). Close is idempotent; the snapshot must not be
// used afterwards.
func (s *Snapshot) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.ctx.open == 0 {
		s.e.releaseGen(s.gen)
		s.e.putCtx(s.ctx)
	}
}
