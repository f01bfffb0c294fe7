package relation

import (
	"fmt"

	"ivmeps/internal/tuple"
)

// Index is a secondary index of a Relation on a sub-schema S of the
// relation's schema. For any S-tuple t it supports the operations (4)-(7)
// of the paper's computational model: constant-delay enumeration of
// σ_{S=t}R, constant-time membership in π_S R, constant-time |σ_{S=t}R|,
// and constant-time maintenance. Each bucket also keeps the sum of its
// entries' multiplicities, Σ_{x} R(t, x), which Sum reads in O(1): every
// write that changes a multiplicity adds the change into the bucket it
// already reaches for its count, so an aggregate V(S) = Σ R onto S is the
// index itself, with no relation of its own to maintain (internal/core's
// index-backed views).
//
// Buckets are the ids of a table keyed on the unencoded projected key tuple
// (seeded independently of the entry table); probes hash the key and never
// build an encoded form. The probe methods are read-only and safe for
// concurrent use while the relation is not being mutated. Emptied bucket ids
// are reused, and the per-entry columns grow with the relation's, so index
// maintenance allocates only when a new key outgrows the bucket columns.
//
// Like Relation, Index is a stable handle over a swappable store: when a
// pinned relation store is detached (copy-on-first-write, see the package
// comment), every live Index handle is swapped onto the copied index store,
// so update plans and partitions may cache *Index pointers across snapshot
// generations and major rebalances alike.
type Index struct {
	rel *Relation
	s   *ixStore
}

// ixStore is one generation of an index's storage; it lives and dies with
// its owning relStore. links and of are columns indexed by entry id, beside
// the relation's own.
type ixStore struct {
	keySchema tuple.Schema
	proj      tuple.Projection
	seed      uint64   // per-table hash seed
	tab       table    // the bucket keys
	buckets   []bucket // by bucket id
	free      ID       // freelist of emptied bucket ids, linked via buckets[id].head
	links     []link   // an entry's place in its bucket
	of        []ID     // an entry's bucket

	keyT tuple.Tuple // reusable projected-key buffer (mutating ops only)
}

// bucket is the list of the entries with one key value, their number and the
// sum of their multiplicities.
type bucket struct {
	list
	count uint32
	sum   int64
}

// EnsureIndex returns the relation's index on keySchema, creating it (and
// populating it from the current contents) if needed. keySchema must be a
// subset of the relation's schema; comparison is order-sensitive only for
// the key hashing, so callers should pass a canonical order. Creating an
// index on a frozen snapshot handle panics — freeze after the enumeration
// indexes exist (internal/core builds them at materialization time).
func (r *Relation) EnsureIndex(keySchema tuple.Schema) *Index {
	if h := r.Index(keySchema); h != nil {
		return h
	}
	if r.frozen {
		panic(fmt.Sprintf("relation %s: EnsureIndex(%v) would create an index on a frozen snapshot", r.name, keySchema))
	}
	if !r.schema.ContainsAll(keySchema) {
		panic(fmt.Sprintf("relation %s: index schema %v not contained in %v", r.name, keySchema, r.schema))
	}
	if r.s.pins.Load() != 0 {
		// A pinned store is never written, not even to gain an index.
		r.detach(false)
	}
	s := r.s
	ix := &ixStore{
		keySchema: keySchema.Clone(),
		proj:      tuple.MustProjection(r.schema, keySchema),
		seed:      tuple.NewSeed(),
		tab:       table{arity: len(keySchema)},
		free:      End,
		links:     make([]link, len(s.mults), cap(s.mults)),
		of:        make([]ID, len(s.mults), cap(s.mults)),
	}
	s.indexes = append(s.indexes, ix)
	h := &Index{rel: r, s: ix}
	r.hand = append(r.hand, h)
	ix.build(s)
	return h
}

// build indexes the entries of rs, on an index just created, as insert of
// each in insertion order would — the same bucket ids, bucket order and
// counts and sums — in passes over the entries that each touch one of the
// index's tables, and write no link but the visited entry's own, where insert
// also writes its bucket tail's, anywhere in the column. A pass in insertion
// order finds each entry's bucket, opening a new key's at the next bucket id;
// a second sets the entry's prev and its bucket's tail, count and sum, and one
// in reverse order its next and the bucket's head.
func (ix *ixStore) build(rs *relStore) {
	for id := rs.order.head; id != End; id = rs.links[id].next {
		ix.keyT = ix.proj.AppendTo(ix.keyT[:0], rs.tab.key(id))
		h := tuple.Hash(ix.seed, ix.keyT)
		i, b, ok := ix.tab.find(h, ix.keyT)
		if !ok {
			b = ID(len(ix.buckets))
			ix.buckets = append(ix.buckets, bucket{list: noList})
			ix.tab.put(i, h, ix.keyT, b)
		}
		ix.of[id] = b
	}
	for id := rs.order.head; id != End; id = rs.links[id].next {
		bk := &ix.buckets[ix.of[id]]
		ix.links[id].prev = bk.tail
		bk.tail = id
		bk.count++
		bk.sum += rs.mults[id]
	}
	for id := rs.order.tail; id != End; id = rs.links[id].prev {
		bk := &ix.buckets[ix.of[id]]
		ix.links[id].next = bk.head
		bk.head = id
	}
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

// insert links entry id of rs at the tail of its key's bucket, opening the
// bucket if the key is new, and adds its multiplicity to the bucket's sum.
func (ix *ixStore) insert(rs *relStore, id ID) {
	ix.keyT = ix.proj.AppendTo(ix.keyT[:0], rs.tab.key(id))
	h := tuple.Hash(ix.seed, ix.keyT)
	i, b, ok := ix.tab.find(h, ix.keyT)
	if !ok {
		if b = ix.free; b != End {
			ix.free = ix.buckets[b].head
		} else {
			b = ID(len(ix.buckets))
			ix.buckets = append(ix.buckets, bucket{})
		}
		ix.buckets[b] = bucket{list: noList}
		ix.tab.put(i, h, ix.keyT, b)
	}
	if int(id) == len(ix.of) {
		ix.links = append(ix.links, link{})
		ix.of = append(ix.of, b)
	} else {
		ix.of[id] = b
	}
	bk := &ix.buckets[b]
	bk.push(ix.links, id)
	bk.count++
	bk.sum += rs.mults[id]
}

// remove unlinks entry id from its bucket, freeing the bucket once empty. The
// entry's multiplicity has reached zero, through addMult, before it leaves:
// the bucket's sum no longer holds it.
func (ix *ixStore) remove(id ID) {
	b := ix.of[id]
	bk := &ix.buckets[b]
	bk.remove(ix.links, id)
	if bk.count--; bk.count == 0 {
		key := ix.tab.key(b)
		i, _, _ := ix.tab.find(tuple.Hash(ix.seed, key), key)
		ix.tab.del(i)
		bk.head = ix.free
		ix.free = b
	}
}

// copy is detach's copy of the index store (see relStore's).
func (ix *ixStore) copy(empty bool) *ixStore {
	c := &ixStore{
		keySchema: ix.keySchema,
		proj:      ix.proj,
		seed:      ix.seed,
		tab:       ix.tab.copy(empty),
		buckets:   cloneCol(ix.buckets, empty),
		free:      ix.free,
		links:     cloneCol(ix.links, empty),
		of:        cloneCol(ix.of, empty),
	}
	if empty {
		c.free = End
	}
	return c
}

// clear empties the index in place.
func (ix *ixStore) clear() {
	ix.tab.clear()
	ix.buckets, ix.links, ix.of = ix.buckets[:0], ix.links[:0], ix.of[:0]
	ix.free = End
}

// find returns key's bucket.
func (ix *ixStore) find(key tuple.Tuple) (*bucket, bool) {
	if _, b, ok := ix.tab.find(tuple.Hash(ix.seed, key), key); ok {
		return &ix.buckets[b], true
	}
	return nil, false
}

// Count returns |σ_{S=key}R| in O(1), without allocating.
func (ix *Index) Count(key tuple.Tuple) int {
	if b, ok := ix.s.find(key); ok {
		return int(b.count)
	}
	return 0
}

// Sum returns Σ_{t ∈ σ_{S=key}R} R(t), the multiplicity key has in the
// aggregate of R onto S, in O(1), without allocating: 0 when key ∉ π_S R.
func (ix *Index) Sum(key tuple.Tuple) int64 {
	if b, ok := ix.s.find(key); ok {
		return b.sum
	}
	return 0
}

// Key returns the index's key schema S. Callers must not modify it.
func (ix *Index) Key() tuple.Schema { return ix.s.keySchema }

// Has reports key ∈ π_S R in O(1).
func (ix *Index) Has(key tuple.Tuple) bool { return ix.Count(key) > 0 }

// DistinctKeys returns |π_S R| in O(1).
func (ix *Index) DistinctKeys() int { return ix.s.tab.count }

// First returns the first entry of σ_{S=key}R in insertion order, or End;
// Next advances within the bucket. Together they give the constant-delay
// cursor the enumeration iterators use, read through the relation's At.
// Neither allocates.
func (ix *Index) First(key tuple.Tuple) ID {
	if b, ok := ix.s.find(key); ok {
		return b.head
	}
	return End
}

// Next returns the entry after id within its bucket, or End.
func (ix *Index) Next(id ID) ID { return ix.s.links[id].next }

// FirstMatch returns the tuple of the first entry of σ_{S=key}R, or nil if
// there is none.
func (ix *Index) FirstMatch(key tuple.Tuple) tuple.Tuple {
	if id := ix.First(key); id != End {
		t, _ := ix.rel.At(id)
		return t
	}
	return nil
}

// ForEachMatch calls fn on every entry of σ_{S=key}R with constant delay.
// fn must not mutate the relation.
func (ix *Index) ForEachMatch(key tuple.Tuple, fn func(t tuple.Tuple, m int64)) {
	for id := ix.First(key); id != End; id = ix.Next(id) {
		fn(ix.rel.At(id))
	}
}

// Sums aggregates the relation onto the index's key: it calls emit once per
// distinct key, in the order the keys first appear in insertion order, with
// the key's bucket sum, Σ multiplicity, or, when count is set, its number of
// entries (the sum of an ∃ input). Those rows are exactly what MustAdd of
// every entry's projected key, in insertion order, leaves in an empty
// relation. Nothing is hashed and nothing summed: one pass in insertion order
// emits each key at its bucket's head, the key's first entry. sums is handed
// back as it came, for callers that pool a scratch; the buckets need none.
// emit must copy the key and leave the relation alone.
func (ix *Index) Sums(sums []int64, count bool, emit func(key tuple.Tuple, m int64)) []int64 {
	s, rs := ix.s, ix.rel.s
	for id := rs.order.head; id != End; id = rs.links[id].next {
		b := s.of[id]
		bk := &s.buckets[b]
		if bk.head != id {
			continue
		}
		m := bk.sum
		if count {
			m = int64(bk.count)
		}
		emit(s.tab.key(b), m)
	}
	return sums
}

// ForEachKey calls fn on one representative (key, bucket-count) per
// distinct key value, in unspecified order.
func (ix *Index) ForEachKey(fn func(key tuple.Tuple, count int)) {
	s := ix.s
	for b := range s.buckets {
		if n := s.buckets[b].count; n > 0 {
			fn(s.tab.key(ID(b)), int(n))
		}
	}
}
