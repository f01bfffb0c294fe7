package core

import (
	"sync"

	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

// Reader/writer epochs. Every committed write operation (Preprocess, each
// Update, each batch commit — major rebalances commit inside them)
// publishes a new epoch. SnapshotInto, which the engine's owner serializes
// with those writes like every other engine call (see Engine), captures the
// epoch plus a frozen handle (relation.FreezeInto) for every relation
// enumeration can reach, so a snapshot always observes one committed state:
// the one before or the one after any batch, never a half-applied one. The
// snapshot's reads and its Close take no engine lock: they run on any
// goroutine, concurrently with the owner's commits, through the relation
// pins and the free list's own mutex.
//
// A snapshot owns its frozen handles: its enumeration context holds a
// frozen copy of the engine's node→relation slice, and the capture pins
// every relation enumeration can reach once — O(#nodes), a number the query
// fixes, copying no data. When the writer mutates a relation that open
// snapshots pin, the relation detaches its storage copy-on-first-write (see
// internal/relation), and the snapshots keep reading the state they pinned
// while ingestion proceeds. Closing a snapshot releases its pins, so the
// writer mutates in place again once no snapshot pins a relation.
//
// Contexts are recycled through the engine's free list (ctxList), handles
// and all: a capture takes a freed context and re-pins each of its frozen
// handles onto the relation's current store (relation.FreezeInto), so a
// read allocates nothing once the list holds a context. Release makes a
// handle forget its store, so a free-listed context keeps no retired store
// reachable. A snapshot closed while one of its iterators is still open
// keeps its context and pins, so that iterator goes on reading the epoch it
// opened at and its handles are never re-pinned under it: the garbage
// collector drops the context, as it does a snapshot never closed, and
// either costs at most one extra detach per relation it pinned.

// Snapshot is an immutable view of one committed engine state. It
// enumerates with its own binding state, concurrently with Update and
// CommitBatch on the engine and with other snapshots; the Snapshot itself is
// not safe for concurrent use — take one snapshot per reader goroutine
// (snapshots of one epoch share their frozen storage, which is read-only).
// Close it when done so the writer can stop preserving what it pins. A
// Snapshot must not be copied: closing a copy too would release its pins
// and free its context twice.
type Snapshot struct {
	_      noCopy
	e      *Engine
	epoch  uint64
	ctx    *enumCtx
	closed bool
}

// noCopy makes go vet's copylocks check report a copied Snapshot.
type noCopy struct{}

// Lock and Unlock do nothing: copylocks looks for them.
func (*noCopy) Lock() {}

// Unlock does nothing; see Lock.
func (*noCopy) Unlock() {}

// ctxList is the engine's free list of closed snapshots' contexts, capped at
// maxFreeCtxs. Its own mutex lets Snapshot.Close, on any goroutine, race the
// owner's captures; a plain slice, unlike a sync.Pool, survives garbage
// collections.
type ctxList struct {
	mu   sync.Mutex
	list []*enumCtx
}

// maxFreeCtxs is the most snapshots bench/'s workloads hold open at once on
// one engine: svc-mixed and svc-durable reach 2, lib-skew and lib-grow 1.
const maxFreeCtxs = 2

// takeCtx returns a freed context, its handles released, or a new one with
// none, its work counter at zero.
func (e *Engine) takeCtx() *enumCtx {
	l := &e.freeCtxs
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.list); n > 0 {
		c := l.list[n-1]
		l.list = l.list[:n-1]
		c.work = 0
		return c
	}
	return e.newEnumCtx(make([]*relation.Relation, len(e.rels)), make([]*relation.Index, len(e.rels)))
}

// putCtx releases the pins of a snapshot context no iterator is open on and
// hands it back to the free list. Neither its handles (Release made them
// forget) nor its trees (Iterator.Close did) point into a relation.
func (e *Engine) putCtx(c *enumCtx) {
	for _, f := range c.pinned {
		f.Release()
	}
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
// allocates only the handle. The owner serializes it with commits, so it
// never sees a batch in flight. The capture pins every reachable relation
// once, re-pinning a freed context's handles, and copies no tuples.
func (e *Engine) SnapshotInto(s *Snapshot) {
	if !e.preprocessed {
		// The one panicking entry point of the read path (documented on the
		// public All/Count): recover sees ErrNotBuilt itself.
		panic(ErrNotBuilt)
	}
	c := e.takeCtx()
	c.pinned = c.pinned[:0]
	for id := range e.info {
		first := e.info[id].frozenAs
		if first == id {
			c.rels[id] = e.rels[id].FreezeInto(c.rels[id])
			c.pinned = append(c.pinned, c.rels[id])
		} else if first >= 0 {
			c.rels[id] = c.rels[first]
		}
		if key := e.info[id].sumKey; key != nil && first >= 0 {
			c.sums[id] = c.rels[id].Index(key)
		}
	}
	*s = Snapshot{e: e, epoch: e.epoch, ctx: c}
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

// ResultInto opens an iterator over the snapshot's state into it, which must
// not hold an open iterator: a caller that holds it reads without allocating
// once the snapshot's context has a closed iterator's tree to reuse.
func (s *Snapshot) ResultInto(it *Iterator) {
	if s.closed {
		panic("core: Result on a closed Snapshot")
	}
	s.ctx.openInto(it)
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

// Close releases the snapshot's pins, so the writer can mutate those
// relations in place again once no other snapshot pins them, and hands its
// context to the engine's free list. A snapshot closed while one of its
// iterators is open keeps both instead, so the iterator still reads the
// snapshot's epoch; they are dropped with it (see the package comment).
// Close is idempotent; the snapshot must not be used afterwards.
func (s *Snapshot) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.ctx.open == 0 {
		s.e.putCtx(s.ctx)
	}
}
