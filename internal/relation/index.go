package relation

import (
	"fmt"

	"ivmeps/internal/tuple"
)

// Index is a secondary index of a Relation on a sub-schema S of the
// relation's schema. For any S-tuple t it supports the operations (4)-(7)
// of the paper's computational model: constant-delay enumeration of
// σ_{S=t}R, constant-time membership in π_S R, constant-time |σ_{S=t}R|,
// and constant-time maintenance.
//
// Buckets live in an open-addressing table keyed on the unencoded projected
// key tuple (seeded independently of the entry table); probes hash the key
// and never build an encoded form. The probe methods are read-only and safe
// for concurrent use while the relation is not being mutated. Removed nodes
// and emptied buckets are pooled, and fresh nodes, buckets, and bucket key
// tuples come from slab arenas, so index maintenance costs amortized ~0
// allocations even when previously unseen key values appear.
//
// Like Relation, Index is a stable handle over a swappable store: when a
// pinned relation store is detached (copy-on-first-write, see the package
// comment), every live Index handle is swapped onto the rebuilt index
// store, so update plans and partitions may cache *Index pointers across
// snapshot generations and major rebalances alike.
type Index struct {
	rel *Relation
	s   *ixStore
}

// ixStore is one generation of an index's storage; it lives and dies with
// its owning relStore.
type ixStore struct {
	keySchema tuple.Schema
	proj      tuple.Projection
	seed      uint64 // per-table hash seed
	tab       oaTable[*bucket]
	slot      int // position of this index in relStore.indexes and Entry.nodes

	keyT     tuple.Tuple // reusable projected-key buffer (mutating ops only)
	freeNode *IndexNode  // freelist of removed nodes, linked via next
	freeBuck *bucket     // freelist of emptied buckets, linked via freeNext

	slabN []IndexNode   // arena of unused nodes
	slabB []bucket      // arena of unused buckets
	slabV []tuple.Value // arena backing fresh bucket key tuples
}

// bucket holds the doubly-linked list of index nodes for one key value.
type bucket struct {
	key      tuple.Tuple
	hash     uint64 // cached tuple.Hash of key under the index's seed
	head     *IndexNode
	tail     *IndexNode
	count    int
	freeNext *bucket
}

// keyTuple keys the bucket table on the projected key tuple.
func (b *bucket) keyTuple() tuple.Tuple { return b.key }

// IndexNode links one entry into one bucket.
type IndexNode struct {
	entry      *Entry
	b          *bucket
	prev, next *IndexNode
}

// EnsureIndex returns the relation's index on keySchema, creating it (and
// populating it from the current contents) if needed. keySchema must be a
// subset of the relation's schema; comparison is order-sensitive only for
// the key hashing, so callers should pass a canonical order. Creating an
// index on a frozen snapshot handle panics — freeze after the enumeration
// indexes exist (internal/core builds them at materialization time).
func (r *Relation) EnsureIndex(keySchema tuple.Schema) *Index {
	for _, h := range r.hand {
		if h.s.keySchema.Equal(keySchema) {
			return h
		}
	}
	if r.frozen {
		panic(fmt.Sprintf("relation %s: EnsureIndex(%v) would create an index on a frozen snapshot", r.name, keySchema))
	}
	if !r.schema.ContainsAll(keySchema) {
		panic(fmt.Sprintf("relation %s: index schema %v not contained in %v", r.name, keySchema, r.schema))
	}
	if r.s.pins.Load() != 0 {
		// Adding an index appends to every entry's back-pointer slots, which
		// a pinned reader may be traversing; detach first.
		r.detach(false)
	}
	s := r.s
	ix := &ixStore{
		keySchema: keySchema.Clone(),
		proj:      tuple.MustProjection(r.schema, keySchema),
		seed:      tuple.NewSeed(),
		slot:      len(s.indexes),
	}
	s.indexes = append(s.indexes, ix)
	h := &Index{rel: r, s: ix}
	r.hand = append(r.hand, h)
	for e := s.head; e != nil; e = e.next {
		ix.insert(e, s)
	}
	return h
}

// Index returns the existing index on keySchema, or nil.
func (r *Relation) Index(keySchema tuple.Schema) *Index {
	for _, h := range r.hand {
		if h.s.keySchema.Equal(keySchema) {
			return h
		}
	}
	return nil
}

// insert links e into the index. rs is the owning relation store (for the
// shared node back-pointer arena).
func (ix *ixStore) insert(e *Entry, rs *relStore) {
	ix.keyT = ix.proj.AppendTo(ix.keyT[:0], e.Tuple)
	h := tuple.Hash(ix.seed, ix.keyT)
	b := ix.tab.get(h, ix.keyT)
	if b == nil {
		b = ix.newBucket(ix.keyT, h)
		ix.tab.put(h, b)
	}
	n := ix.newNode(e, b)
	n.prev = b.tail
	if b.tail != nil {
		b.tail.next = n
	} else {
		b.head = n
	}
	b.tail = n
	b.count++
	if cap(e.nodes) <= ix.slot {
		// Move the back-pointer slots to an arena chunk sized for every
		// current index of the relation.
		fresh := rs.slabNodes(len(rs.indexes))
		copy(fresh, e.nodes)
		e.nodes = fresh[:len(e.nodes)]
	}
	for len(e.nodes) <= ix.slot {
		e.nodes = append(e.nodes, nil)
	}
	e.nodes[ix.slot] = n
}

// newBucket takes a bucket from the freelist (reusing its key buffer) or
// carves one out of the slab arenas; key is copied.
func (ix *ixStore) newBucket(key tuple.Tuple, h uint64) *bucket {
	b := ix.freeBuck
	if b != nil {
		ix.freeBuck = b.freeNext
		b.freeNext = nil
		b.key = append(b.key[:0], key...)
	} else {
		if len(ix.slabB) == 0 {
			ix.slabB = make([]bucket, entrySlab)
		}
		b = &ix.slabB[0]
		ix.slabB = ix.slabB[1:]
		b.key = ix.slabKey(key)
	}
	b.hash = h
	return b
}

// slabKey copies key into a chunk of the index's value arena.
func (ix *ixStore) slabKey(key tuple.Tuple) tuple.Tuple {
	n := len(key)
	if n == 0 {
		return nil
	}
	if len(ix.slabV) < n {
		ix.slabV = make([]tuple.Value, n*entrySlab)
	}
	out := ix.slabV[:n:n]
	ix.slabV = ix.slabV[n:]
	copy(out, key)
	return out
}

// newNode takes a node from the freelist or carves one out of the arena.
func (ix *ixStore) newNode(e *Entry, b *bucket) *IndexNode {
	if n := ix.freeNode; n != nil {
		ix.freeNode = n.next
		n.entry, n.b, n.prev, n.next = e, b, nil, nil
		return n
	}
	if len(ix.slabN) == 0 {
		ix.slabN = make([]IndexNode, entrySlab)
	}
	n := &ix.slabN[0]
	ix.slabN = ix.slabN[1:]
	n.entry, n.b = e, b
	return n
}

func (ix *ixStore) remove(e *Entry) {
	n := e.nodes[ix.slot]
	if n == nil {
		return
	}
	b := n.b
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	b.count--
	if b.count == 0 {
		ix.tab.del(b.hash, b)
		b.freeNext = ix.freeBuck
		ix.freeBuck = b
	}
	e.nodes[ix.slot] = nil
	n.entry, n.b, n.prev = nil, nil, nil
	n.next = ix.freeNode
	ix.freeNode = n
}

// Count returns |σ_{S=key}R| in O(1), without allocating.
func (ix *Index) Count(key tuple.Tuple) int {
	s := ix.s
	if b := s.tab.get(tuple.Hash(s.seed, key), key); b != nil {
		return b.count
	}
	return 0
}

// Has reports key ∈ π_S R in O(1).
func (ix *Index) Has(key tuple.Tuple) bool { return ix.Count(key) > 0 }

// DistinctKeys returns |π_S R| in O(1).
func (ix *Index) DistinctKeys() int { return ix.s.tab.len() }

// ForEachMatch calls fn on every entry of σ_{S=key}R with constant delay.
// fn must not mutate the relation.
func (ix *Index) ForEachMatch(key tuple.Tuple, fn func(t tuple.Tuple, m int64)) {
	s := ix.s
	b := s.tab.get(tuple.Hash(s.seed, key), key)
	if b == nil {
		return
	}
	for n := b.head; n != nil; n = n.next {
		fn(n.entry.Tuple, n.entry.Mult)
	}
}

// Matches returns a snapshot of σ_{S=key}R; intended for tests.
func (ix *Index) Matches(key tuple.Tuple) []Entry {
	var out []Entry
	ix.ForEachMatch(key, func(t tuple.Tuple, m int64) {
		out = append(out, Entry{Tuple: t.Clone(), Mult: m})
	})
	return out
}

// FirstMatch returns the first entry of σ_{S=key}R in insertion order, or
// nil if the bucket is empty; NextMatch advances within the bucket. Together
// they give the constant-delay cursor used by the enumeration iterators.
// It does not allocate.
func (ix *Index) FirstMatch(key tuple.Tuple) *IndexNode {
	s := ix.s
	if b := s.tab.get(tuple.Hash(s.seed, key), key); b != nil {
		return b.head
	}
	return nil
}

// Next returns the cursor after n within its bucket, or nil.
func (n *IndexNode) Next() *IndexNode { return n.next }

// Entry returns the relation entry the cursor points at.
func (n *IndexNode) Entry() *Entry { return n.entry }

// ForEachKey calls fn on one representative (key, bucket-count) per
// distinct key value, in unspecified order.
func (ix *Index) ForEachKey(fn func(key tuple.Tuple, count int)) {
	ix.s.tab.forEach(func(b *bucket) {
		fn(b.key, b.count)
	})
}
