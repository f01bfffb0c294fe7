// Package relation implements the data structure of the paper's
// computational model (Section 3): a relation (or materialized view) over a
// schema X stores key-value entries (x, R(x)) for tuples with non-zero
// multiplicity, and supports
//
//  1. lookup, insert, and delete of entries in constant time,
//  2. enumeration of all stored entries with constant delay,
//  3. reporting |R| in constant time,
//
// and, per secondary index on a sub-schema S ⊂ X,
//
//  4. constant-delay enumeration of σ_{S=t}R,
//  5. constant-time membership t ∈ π_S R,
//  6. constant-time |σ_{S=t}R|,
//  7. constant-time index insert and delete.
//
// # Storage
//
// Entries are stored in an open-addressing hash table (table.go) keyed
// directly on the unencoded tuple: a probe hashes the tuple's values
// (tuple.Hash, seeded per table) and compares candidates value by value, so
// no per-probe key encoding is ever built and no map-key string is ever
// retained. Deletion backward-shifts the probe cluster instead of leaving
// tombstones. Entries are doubly linked for constant-delay enumeration, and
// each secondary index is a hash table — keyed the same way on the
// projected key tuple — of doubly-linked pointer lists with back-pointers
// stored on each entry, exactly the structure sketched in the paper.
//
// A Relation is a stable handle over a swappable store (relStore): all of
// the storage above lives in the store, and mutators reach it through the
// handle. Embedders may therefore cache *Relation and *Index pointers
// forever; the handles never change identity even when the storage beneath
// them is versioned (see Snapshots below).
//
// # Allocation
//
// Probes and multiplicity changes of existing entries are allocation-free.
// Cold inserts draw Entry structs, their tuple backing arrays, and their
// index back-pointer slots from slab arenas (batch-allocated blocks of
// entrySlab items), so a cold insert costs amortized ~0 allocations;
// removed entries, index nodes, and emptied buckets go to freelists and are
// reused before the arenas grow. Clear recycles everything and keeps the
// hash tables' slot arrays, so a refill after Clear allocates nothing, nor
// does the steady-state major rebalance internal/core builds of such refills.
// A first fill need not double its way up from eight slots: under GrowHint(n)
// the entry table and the entry, tuple and back-pointer arenas grow to
// min(n, 8 × the current size) when that is more than they would have — no
// reservation: a fill whose rows collapse onto few tuples stops at most one
// such step past what it stored. A hint never shrinks a table.
//
// # Snapshots
//
// Freeze returns a read-only handle pinned to the relation's current store.
// While any frozen handle is live (not yet Released), the first mutation of
// the relation detaches the store: the writer copies the contents into a
// fresh store, swaps the handle onto the copy, and mutates only the copy,
// so every frozen reader keeps an immutable view of the exact contents it
// pinned (copy-on-first-write per snapshot generation). Clear on a pinned
// store swaps in an empty store, its tables sized like the retired one's for
// the refill that follows, instead of copying. The detach cost is
// O(|R|·(1+indexes)) once per pinned generation; with no live freezes the
// only overhead on the mutation path is one atomic pin-count load. Retired
// stores are unreachable once the last frozen handle is dropped and are
// reclaimed by the garbage collector.
//
// Relations are not safe for concurrent mutation, but the probe methods
// (Mult, Contains, index Count/Has/FirstMatch/ForEachMatch) are read-only
// and may run concurrently from any number of goroutines while the relation
// is not being mutated — and a frozen handle may be read concurrently with
// any mutation of the relation it was frozen from, provided the Freeze
// itself was ordered before the mutation (internal/core orders them under
// the engine's writer lock).
package relation

import (
	"fmt"
	"sync/atomic"

	"ivmeps/internal/tuple"
)

// Entry is one stored tuple with its multiplicity. Entries are owned by
// their Relation; callers must not modify Tuple in place.
type Entry struct {
	Tuple tuple.Tuple
	Mult  int64

	hash       uint64 // cached tuple.Hash under the store's seed
	prev, next *Entry
	// nodes[i] is this entry's node in the store's i-th index
	// (the back-pointers of the paper's deletion scheme).
	nodes []*IndexNode
}

// keyTuple keys the entry table on the stored tuple.
func (e *Entry) keyTuple() tuple.Tuple { return e.Tuple }

// entrySlab is the block size of the slab arenas: entries, tuple backing
// values, and node back-pointer slots are allocated entrySlab items at a
// time, amortizing cold-insert allocation to ~0 per entry.
const entrySlab = 64

// relStore is one immutable-once-retired version of a relation's storage:
// the entry table, the insertion-ordered entry list, the secondary index
// stores, the freelists, and the slab arenas. The live store is mutated in
// place through the Relation handle; a store pinned by Freeze is detached
// (copy-on-first-write) before the next mutation and never written again.
type relStore struct {
	seed    uint64 // per-table hash seed
	tab     oaTable[*Entry]
	head    *Entry // insertion-ordered doubly-linked list
	tail    *Entry
	indexes []*ixStore
	total   int64  // sum of multiplicities (for diagnostics)
	free    *Entry // freelist of removed entries, linked via next

	slabE []Entry       // arena of unused Entry structs
	slabV []tuple.Value // arena backing fresh entry tuples
	slabN []*IndexNode  // arena backing fresh entry node slots

	// pins counts the live frozen handles reading this store. A writer
	// checks it before mutating and detaches the store when it is non-zero;
	// frozen handles decrement it on Release. It is the only field accessed
	// from more than one goroutine.
	pins atomic.Int32
}

// Relation is a multiset relation over a fixed schema, storing tuples with
// strictly positive multiplicities. The zero multiplicity is represented by
// absence. See the package comment for the storage layout and the
// copy-on-write snapshot scheme.
type Relation struct {
	name   string
	schema tuple.Schema
	s      *relStore
	// hand[i] is the stable Index handle over s.indexes[i]; detach swaps
	// every handle onto the rebuilt index store so cached *Index pointers
	// (update plans, partitions) stay valid.
	hand []*Index
	// frozen marks a read-only snapshot handle returned by Freeze: mutators
	// panic, and Release drops its pin.
	frozen   bool
	released bool
}

// New creates an empty relation with the given name and schema.
func New(name string, schema tuple.Schema) *Relation {
	if err := schema.Validate(); err != nil {
		panic(err)
	}
	return &Relation{
		name:   name,
		schema: schema.Clone(),
		s:      &relStore{seed: tuple.NewSeed()},
	}
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema. Callers must not modify it.
func (r *Relation) Schema() tuple.Schema { return r.schema }

// Size returns |R|, the number of distinct stored tuples, in O(1).
func (r *Relation) Size() int { return r.s.tab.len() }

// TotalMultiplicity returns the sum of all multiplicities.
func (r *Relation) TotalMultiplicity() int64 { return r.s.total }

// HashOf returns the hash of t under the relation's table seed, for use
// with the *Hashed probe and update variants. The seed survives
// copy-on-write detaches, so hashes stay valid across snapshot generations.
func (r *Relation) HashOf(t tuple.Tuple) uint64 { return tuple.Hash(r.s.seed, t) }

// Mult returns R(t): the multiplicity of t, or 0 if absent. It does not
// allocate and is safe to call concurrently while the relation is not being
// mutated.
func (r *Relation) Mult(t tuple.Tuple) int64 {
	s := r.s
	if e := s.tab.get(tuple.Hash(s.seed, t), t); e != nil {
		return e.Mult
	}
	return 0
}

// MultHashed is Mult with the hash precomputed via HashOf, for embedders
// that batch probes of one tuple.
func (r *Relation) MultHashed(h uint64, t tuple.Tuple) int64 {
	if e := r.s.tab.get(h, t); e != nil {
		return e.Mult
	}
	return 0
}

// Contains reports whether t ∈ R (non-zero multiplicity).
func (r *Relation) Contains(t tuple.Tuple) bool { return r.Mult(t) != 0 }

// MultiplicityError is returned when an update would drive a multiplicity
// below zero; the paper rejects such deletes (Section 3, "Modeling
// Updates"). Have is the multiplicity available when the update was
// attempted and Delta the attempted (negative) change.
type MultiplicityError struct {
	Relation string
	Tuple    tuple.Tuple
	Have     int64
	Delta    int64
}

// Error formats the rejected delete.
func (e *MultiplicityError) Error() string {
	return fmt.Sprintf("relation %s: delete of %v with multiplicity %d exceeds stored multiplicity %d",
		e.Relation, e.Tuple, -e.Delta, e.Have)
}

// ArityError is returned when a tuple's length does not match the schema of
// the relation it is applied to.
type ArityError struct {
	Relation string
	Tuple    tuple.Tuple
	Schema   tuple.Schema
}

// Error formats the arity mismatch.
func (e *ArityError) Error() string {
	return fmt.Sprintf("relation %s: tuple %v has arity %d, schema %v has arity %d",
		e.Relation, e.Tuple, len(e.Tuple), e.Schema, len(e.Schema))
}

// Add applies the single-tuple delta {t -> m}: it adds m to the
// multiplicity of t, inserting the entry if it was absent and removing it
// if the multiplicity reaches zero. It returns an error (and leaves the
// relation unchanged) if the result would be negative. m = 0 is a no-op.
// Multiplicity changes of existing entries do not allocate; removed entries
// are pooled and reused by later inserts, and fresh entries come from the
// slab arenas.
func (r *Relation) Add(t tuple.Tuple, m int64) error {
	if m == 0 {
		return nil
	}
	if r.frozen {
		panic(fmt.Sprintf("relation %s: mutation of a frozen snapshot handle", r.name))
	}
	if len(t) != len(r.schema) {
		return r.arityError(t)
	}
	if r.s.pins.Load() != 0 {
		r.detach(false)
	}
	return r.addHashed(t, tuple.Hash(r.s.seed, t), m)
}

// arityError builds the arity-mismatch error away from the Add hot path:
// constructing it directly there would make the tuple parameter escape and
// heap-allocate every caller-constructed tuple.
func (r *Relation) arityError(t tuple.Tuple) error {
	return &ArityError{Relation: r.name, Tuple: t.Clone(), Schema: r.schema}
}

// AddHashed is Add with the hash precomputed via HashOf (a hash not equal
// to HashOf(t) corrupts the relation). It skips the hash computation for
// embedders that batch updates of one tuple.
func (r *Relation) AddHashed(t tuple.Tuple, h uint64, m int64) error {
	if m == 0 {
		return nil
	}
	if r.frozen {
		panic(fmt.Sprintf("relation %s: mutation of a frozen snapshot handle", r.name))
	}
	if len(t) != len(r.schema) {
		return r.arityError(t)
	}
	if r.s.pins.Load() != 0 {
		r.detach(false)
	}
	return r.addHashed(t, h, m)
}

// addHashed is the shared body of Add and AddHashed. The caller has already
// detached a pinned store.
func (r *Relation) addHashed(t tuple.Tuple, h uint64, m int64) error {
	s := r.s
	e := s.tab.get(h, t)
	if e == nil {
		if m < 0 {
			return &MultiplicityError{Relation: r.name, Tuple: t.Clone(), Have: 0, Delta: m}
		}
		e = s.newEntry(t, m)
		e.hash = h
		s.tab.put(h, e)
		s.linkEntry(e)
		for _, ix := range s.indexes {
			ix.insert(e, s)
		}
		s.total += m
		return nil
	}
	if e.Mult+m < 0 {
		return &MultiplicityError{Relation: r.name, Tuple: t.Clone(), Have: e.Mult, Delta: m}
	}
	e.Mult += m
	s.total += m
	if e.Mult == 0 {
		s.tab.del(e.hash, e)
		s.unlinkEntry(e)
		for _, ix := range s.indexes {
			ix.remove(e)
		}
		e.next = s.free
		s.free = e
	}
	return nil
}

// GrowHint announces a fill expected to bring the relation to n rows (see
// Allocation in the package comment); GrowHint(0) after the fill withdraws it.
func (r *Relation) GrowHint(n int) { r.s.tab.hint = n }

// slabLen sizes the next arena block: entrySlab, or what the hint allows.
func (s *relStore) slabLen() int {
	return max(entrySlab, min(s.tab.hint, 8*s.tab.count)-s.tab.count)
}

// newEntry takes an entry from the freelist (reusing its tuple buffer and
// index back-pointer slots) or carves a fresh one out of the slab arenas.
func (s *relStore) newEntry(t tuple.Tuple, m int64) *Entry {
	if e := s.free; e != nil {
		s.free = e.next
		e.next = nil
		e.Tuple = append(e.Tuple[:0], t...)
		e.Mult = m
		return e
	}
	if len(s.slabE) == 0 {
		s.slabE = make([]Entry, s.slabLen())
	}
	e := &s.slabE[0]
	s.slabE = s.slabE[1:]
	e.Tuple = s.slabTuple(t)
	e.Mult = m
	return e
}

// slabTuple copies t into a chunk of the store's value arena.
func (s *relStore) slabTuple(t tuple.Tuple) tuple.Tuple {
	n := len(t)
	if n == 0 {
		return nil
	}
	if len(s.slabV) < n {
		s.slabV = make([]tuple.Value, n*s.slabLen())
	}
	out := s.slabV[:n:n]
	s.slabV = s.slabV[n:]
	copy(out, t)
	return out
}

// slabNodes returns an n-slot node back-pointer chunk from the node arena.
func (s *relStore) slabNodes(n int) []*IndexNode {
	if len(s.slabN) < n {
		s.slabN = make([]*IndexNode, n*s.slabLen())
	}
	out := s.slabN[:n:n]
	s.slabN = s.slabN[n:]
	return out
}

// MustAdd is Add that panics on error; for code paths where the engine
// guarantees non-negative multiplicities.
func (r *Relation) MustAdd(t tuple.Tuple, m int64) {
	if err := r.Add(t, m); err != nil {
		panic(err)
	}
}

// Set forces the multiplicity of t to m ≥ 0 (0 deletes). The tuple is
// hashed once for both the read and the write.
func (r *Relation) Set(t tuple.Tuple, m int64) {
	h := tuple.Hash(r.s.seed, t)
	cur := r.MultHashed(h, t)
	if err := r.AddHashed(t, h, m-cur); err != nil {
		panic(err)
	}
}

// Freeze returns a read-only handle pinned to the relation's current
// contents. The handle observes exactly the state at the time of the call,
// no matter how the relation is mutated afterwards (the first mutation
// copies the contents aside — see the package comment). Call Release when
// done reading so the writer can stop preserving this generation. The
// caller must order Freeze before any concurrent mutation (internal/core
// uses the engine writer lock); the returned handle itself may then be read
// from any goroutine not calling its methods concurrently.
func (r *Relation) Freeze() *Relation {
	s := r.s
	s.pins.Add(1)
	f := &Relation{name: r.name, schema: r.schema, s: s, frozen: true}
	f.hand = make([]*Index, len(s.indexes))
	for i, ix := range s.indexes {
		f.hand[i] = &Index{rel: f, s: ix}
	}
	return f
}

// Release drops a frozen handle's pin on its store, allowing the writer to
// mutate that generation in place again (if no other pins remain). The
// handle must not be used after Release. Releasing twice or releasing a
// non-frozen relation panics.
func (r *Relation) Release() {
	if !r.frozen {
		panic("relation: Release of a non-frozen relation")
	}
	if r.released {
		panic("relation: Release called twice")
	}
	r.released = true
	r.s.pins.Add(-1)
}

// detach performs the copy-on-first-write: it retires the pinned store to
// its frozen readers and installs a fresh store for the writer — a full
// copy of the contents (entries in insertion order, every index rebuilt),
// or an empty store with the same index definitions when the caller is
// about to Clear and refill; either has its tables sized from the retired
// store's counts. Index handles are swapped onto the rebuilt index stores, so
// cached *Index pointers stay valid. The retired store is never written again.
func (r *Relation) detach(empty bool) {
	if r.frozen {
		panic(fmt.Sprintf("relation %s: mutation of a frozen snapshot handle", r.name))
	}
	old := r.s
	s := &relStore{seed: old.seed}
	s.indexes = make([]*ixStore, len(old.indexes))
	for i, oix := range old.indexes {
		nix := &ixStore{
			keySchema: oix.keySchema,
			proj:      oix.proj,
			seed:      oix.seed,
			slot:      oix.slot,
		}
		nix.tab.reserve(oix.tab.len())
		s.indexes[i] = nix
		r.hand[i].s = nix
	}
	s.tab.reserve(old.tab.len())
	r.s = s
	if empty {
		return
	}
	for e := old.head; e != nil; e = e.next {
		ne := s.newEntry(e.Tuple, e.Mult)
		ne.hash = e.hash // same seed: cached hashes stay valid
		s.tab.put(ne.hash, ne)
		s.linkEntry(ne)
		for _, ix := range s.indexes {
			ix.insert(ne, s)
		}
	}
	s.total = old.total
}

// Clear removes all tuples (and empties all indexes) while keeping the
// index definitions. Entries, index nodes, and buckets are recycled onto
// the freelists and the hash tables keep their slot arrays, so a refill
// allocates nothing. On a store pinned by a live Freeze, Clear instead swaps
// in an empty store (detach) whose tables are sized for the refill.
func (r *Relation) Clear() {
	if r.frozen {
		panic(fmt.Sprintf("relation %s: Clear of a frozen snapshot handle", r.name))
	}
	if r.s.pins.Load() != 0 {
		r.detach(true)
		return
	}
	s := r.s
	for _, ix := range s.indexes {
		ix.tab.forEach(func(b *bucket) {
			b.head, b.tail, b.count = nil, nil, 0
			b.freeNext = ix.freeBuck
			ix.freeBuck = b
		})
		ix.tab.clear()
	}
	var next *Entry
	for e := s.head; e != nil; e = next {
		next = e.next
		for i, n := range e.nodes {
			if n == nil {
				continue
			}
			n.entry, n.b, n.prev = nil, nil, nil
			n.next = s.indexes[i].freeNode
			s.indexes[i].freeNode = n
			e.nodes[i] = nil
		}
		e.prev = nil
		e.next = s.free
		s.free = e
	}
	s.tab.clear()
	s.head, s.tail = nil, nil
	s.total = 0
}

func (s *relStore) linkEntry(e *Entry) {
	e.prev = s.tail
	e.next = nil
	if s.tail != nil {
		s.tail.next = e
	} else {
		s.head = e
	}
	s.tail = e
}

func (s *relStore) unlinkEntry(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// First returns the first entry in insertion order, or nil if empty.
func (r *Relation) First() *Entry { return r.s.head }

// Next returns the entry after e in insertion order, or nil.
func (r *Relation) Next(e *Entry) *Entry { return e.next }

// ForEach calls fn on every entry in insertion order. fn must not mutate
// the relation.
func (r *Relation) ForEach(fn func(t tuple.Tuple, m int64)) {
	for e := r.s.head; e != nil; e = e.next {
		fn(e.Tuple, e.Mult)
	}
}

// ForEachUntil calls fn on every entry in insertion order until fn returns
// false. fn must not mutate the relation.
func (r *Relation) ForEachUntil(fn func(t tuple.Tuple, m int64) bool) {
	for e := r.s.head; e != nil; e = e.next {
		if !fn(e.Tuple, e.Mult) {
			return
		}
	}
}

// Entries returns a snapshot slice of (tuple, multiplicity) pairs in
// insertion order; intended for tests and small relations.
func (r *Relation) Entries() []Entry {
	out := make([]Entry, 0, r.s.tab.len())
	for e := r.s.head; e != nil; e = e.next {
		out = append(out, Entry{Tuple: e.Tuple.Clone(), Mult: e.Mult})
	}
	return out
}

// Clone returns a deep copy of the relation's contents (indexes are not
// copied; add them on the clone as needed).
func (r *Relation) Clone() *Relation {
	out := New(r.name, r.schema)
	for e := r.s.head; e != nil; e = e.next {
		out.MustAdd(e.Tuple, e.Mult)
	}
	return out
}

// String renders a small relation for debugging.
func (r *Relation) String() string {
	s := r.name + r.schema.String() + "{"
	first := true
	for e := r.s.head; e != nil; e = e.next {
		if !first {
			s += ", "
		}
		first = false
		s += fmt.Sprintf("%v->%d", e.Tuple, e.Mult)
	}
	return s + "}"
}
