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
// A relation's storage is a set of pointer-free columns indexed by entry ID:
// the tuples in one value arena at arity stride, their multiplicities beside
// them, and prev/next ids that link the entries in insertion order for
// constant-delay enumeration. A probe table (table.go) finds an entry from its
// unencoded tuple: it hashes the tuple (tuple.Hash, seeded per table) and
// compares the arena's values, so no per-probe key encoding is ever built,
// and one probe serves an insert's find-or-insert. A removed entry's
// id goes to a free list and the next insert takes it, linked at the tail, so
// enumeration order is insertion order. Each secondary index is a table of
// bucket keys — keyed the same way on the projected key tuple — with a head,
// tail and count per bucket and prev/next/bucket columns per entry: the
// doubly-linked lists with back-pointers of the paper's sketch, as ids. The
// garbage collector has nothing to scan in any of it.
//
// A Relation is a stable handle over a swappable store (relStore): all of
// the storage above lives in the store, and mutators reach it through the
// handle. Embedders may therefore cache *Relation and *Index pointers
// forever; the handles never change identity even when the storage beneath
// them is versioned (see Snapshots below).
//
// # Allocation
//
// Probes, multiplicity changes of existing entries, and inserts that reuse a
// freed id or fit the columns' capacity are allocation-free. Full columns grow
// together, one allocation each, to twice their rows (64 at first), and the
// probe table doubles once its load passes 3/4. Clear truncates the columns
// and empties the tables in place, so a refill after Clear allocates nothing,
// nor does the steady-state major rebalance internal/core builds of such
// refills.
//
// # Bulk fills
//
// A fill whose row count is known ahead (internal/core counts a join's rows
// before it runs it) takes its own path, in fill.go: Reserve(n) announces the
// rows, Append stores each one at the next id without probing, and Seal
// places them. Seal hashes the appended rows twice — a counting pass, then a
// scatter pass into the insertion-order column, free until Seal rebuilds it —
// to order their slot values by the top bits of their home slots, and inserts
// them one partition of the probe array at a time (about 2^14 slots, at most
// 256 partitions), so each probe lands in a cache-sized window rather than
// anywhere in the array. A row equal to an earlier one merges into it; only
// when one did does a pass close the gaps in the ids, moving as many rows as
// merged. The relation is then exactly what Add of each row, in order, would
// have left. The count sizes the columns: Reserve makes room for the first
// 512 rows, and while no seal has merged a row they grow straight to the
// count. Once rows merge, a fill seals whenever its columns are full and
// grows them to at most 8× the rows it kept, and Seal leaves a fill that
// outgrew its columns the room to repeat without growing, so a steady-state
// major rebalance still allocates nothing.
//
// A delta fill applies a delta rather than storing rows: OpenDelta, then
// Append of each row of δR, then SealDelta, whose count internal/core does
// not know ahead. Its columns double as rows come and nothing is placed
// until SealDelta, which shares Seal's two hashing passes and its placement
// partition by partition, but merges only appended rows: a tuple's first row
// is its accumulator — in the slot of the stored equal row, whose id the
// slot gives up until the end, or in a new one, the probe array growing
// only as new tuples fill it — and its later rows add into it. Placement
// leaves a record per row past the end of the insertion-order column (the
// stored row and the accumulator's slot), from which a pass in id order
// settles every accumulator without a hash or a key compare: exactly as Add
// of the aggregated rows, in the order their tuples first appeared, would —
// the same merges, removals and inserts, freed ids reused, in the same
// insertion order and index buckets — and hands each non-zero net row to
// the caller in that order. A new row that keeps the id it was appended at
// touches no slot again.
//
// # Keyed sets
//
// Keys (keys.go), the probe table without deletion, numbers distinct tuples
// in first-add order for internal/core's batch grouping and
// internal/federation's gather; a use costs what it adds, not what an
// earlier use of the pooled set held.
//
// # Snapshots
//
// FreezeInto returns a read-only handle pinned to the relation's current
// store. While any frozen handle is live (not yet Released), the first
// mutation of the relation detaches the store: the writer copies its columns
// and probe arrays into a fresh store — a fixed number of flat copies, with
// no rehash and no per-entry work — swaps the handle onto the copy, and
// mutates only the copy, so every frozen reader keeps an immutable view of
// the exact contents it pinned (copy-on-first-write per snapshot
// generation). Clear on a pinned store swaps in an empty store with the
// retired one's capacities, for the refill that follows, instead of copying.
// The detach costs a copy of the store's bytes once per pinned generation;
// with no live freezes the only overhead on the mutation path is one atomic
// pin-count load. Release drops the pin and makes the handle forget its
// store, so a retired store is unreachable once its last frozen handle is
// released (or dropped) and the garbage collector reclaims it, while the
// released handle itself can be kept and passed back to FreezeInto at a
// later generation: re-pinning it allocates nothing.
//
// Relations are not safe for concurrent mutation, but the probe and cursor
// methods (Mult, Contains, First/Next/At, index Count/Has/First/Next/
// FirstMatch/ForEachMatch) are read-only
// and may run concurrently from any number of goroutines while the relation
// is not being mutated — and a frozen handle may be read concurrently with
// any mutation of the relation it was frozen from, provided the FreezeInto
// itself was ordered before the mutation (internal/core orders them under
// the engine's writer lock).
package relation

import (
	"fmt"
	"sync/atomic"
	"unsafe"
	"weak"

	"ivmeps/internal/tuple"
)

// ID names an entry of a relation: its row in the store's columns. Ids are
// dense and a removed entry's id is handed to a later insert, so an ID is
// valid until its entry is removed.
type ID uint32

// End is the ID the cursors return past the last entry.
const End = ^ID(0)

// link is an entry's place in a doubly-linked id list.
type link struct{ prev, next ID }

// list is the head and tail of a doubly-linked id list.
type list struct{ head, tail ID }

var noList = list{End, End}

// push links id at the tail.
func (l *list) push(links []link, id ID) {
	links[id] = link{l.tail, End}
	if l.tail != End {
		links[l.tail].next = id
	} else {
		l.head = id
	}
	l.tail = id
}

// remove unlinks id.
func (l *list) remove(links []link, id ID) {
	k := links[id]
	if k.prev != End {
		links[k.prev].next = k.next
	} else {
		l.head = k.next
	}
	if k.next != End {
		links[k.next].prev = k.prev
	} else {
		l.tail = k.prev
	}
}

// relStore is one immutable-once-retired version of a relation's storage:
// the entry table with its tuple arena, the multiplicity and insertion-order
// columns, the free-id list, and the secondary index stores.
// The live store is mutated in place through the Relation handle; a store
// pinned by FreezeInto is detached (copy-on-first-write) before the next mutation
// and never written again.
type relStore struct {
	seed    uint64 // per-table hash seed
	tab     table  // the entries' tuples
	mults   []int64
	links   []link // insertion order
	order   list
	free    ID // freelist of removed ids, linked via links[id].next
	indexes []*ixStore
	fill    fillState // an open bulk fill (fill.go)

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
	// every handle onto the copied index store so cached *Index pointers
	// (update plans, partitions) stay valid.
	hand []*Index
	// frozen marks a read-only snapshot handle returned by FreezeInto:
	// mutators panic, and Release drops its pin and sets s to nil.
	frozen bool
}

// New creates an empty relation with the given name and schema.
func New(name string, schema tuple.Schema) *Relation {
	if err := schema.Validate(); err != nil {
		panic(err)
	}
	return &Relation{
		name:   name,
		schema: schema.Clone(),
		s:      &relStore{seed: tuple.NewSeed(), tab: table{arity: len(schema)}, order: noList, free: End},
	}
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema. Callers must not modify it.
func (r *Relation) Schema() tuple.Schema { return r.schema }

// Size returns |R|, the number of distinct stored tuples, in O(1).
func (r *Relation) Size() int { return r.s.tab.count }

// Footprint returns the bytes the relation's storage holds — every column,
// key arena and probe array, its indexes' included — counted by capacity.
// It is the space side of the paper's trade-off, exact for a given history
// of updates.
func (r *Relation) Footprint() int {
	s := r.s
	n := s.tab.footprint() + capBytes(s.mults) + capBytes(s.links)
	for _, ix := range s.indexes {
		n += ix.tab.footprint() + capBytes(ix.buckets) + capBytes(ix.links) + capBytes(ix.of)
	}
	return n
}

// capBytes is col's capacity in bytes.
func capBytes[T any](col []T) int {
	var z T
	return cap(col) * int(unsafe.Sizeof(z))
}

// Mult returns R(t): the multiplicity of t, or 0 if absent. It does not
// allocate and is safe to call concurrently while the relation is not being
// mutated.
func (r *Relation) Mult(t tuple.Tuple) int64 { return r.multHashed(tuple.Hash(r.s.seed, t), t) }

// multHashed is Mult with h = tuple.Hash(r.s.seed, t) precomputed, so Set
// hashes once for its read and its write.
func (r *Relation) multHashed(h uint64, t tuple.Tuple) int64 {
	s := r.s
	if _, id, ok := s.tab.find(h, t); ok {
		return s.mults[id]
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
// t is copied; multiplicity changes of existing entries do not allocate,
// and neither do inserts the columns have room for (see Allocation in the
// package comment).
func (r *Relation) Add(t tuple.Tuple, m int64) error {
	_, err := r.addHashed(t, tuple.Hash(r.s.seed, t), m)
	return err
}

// arityError builds the arity-mismatch error away from the Add hot path:
// constructing it directly there would make the tuple parameter escape and
// heap-allocate every caller-constructed tuple.
func (r *Relation) arityError(t tuple.Tuple) error {
	return &ArityError{Relation: r.name, Tuple: t.Clone(), Schema: r.schema}
}

// multError builds the rejected-delete error away from the Add hot path, for
// the same reason as arityError.
func (r *Relation) multError(t tuple.Tuple, have, m int64) error {
	return &MultiplicityError{Relation: r.name, Tuple: t.Clone(), Have: have, Delta: m}
}

// addHashed is Add with h = tuple.Hash(r.s.seed, t) precomputed; any other
// h corrupts the relation. It also returns the multiplicity t had before, for
// m ≠ 0.
func (r *Relation) addHashed(t tuple.Tuple, h uint64, m int64) (prior int64, err error) {
	if m == 0 {
		return 0, nil
	}
	if r.frozen {
		panic(fmt.Sprintf("relation %s: mutation of a frozen snapshot handle", r.name))
	}
	if len(t) != len(r.schema) {
		return 0, r.arityError(t)
	}
	if r.s.pins.Load() != 0 {
		r.detach(false)
	}
	s := r.s
	if s.fill.pend != 0 {
		panic(fmt.Sprintf("relation %s: Add during an open fill (Seal it first)", r.name))
	}
	i, id, ok := s.tab.find(h, t)
	if !ok {
		if m < 0 {
			return 0, r.multError(t, 0, m)
		}
		s.insert(i, h, t, m)
		return 0, nil
	}
	have := s.mults[id]
	if have+m < 0 {
		return have, r.multError(t, have, m)
	}
	s.mults[id] = have + m
	if have+m == 0 {
		s.remove(i, id)
	}
	return have, nil
}

// remove drops entry id, in probe slot i, whose multiplicity reached zero:
// out of the table, the insertion order and every index, its id onto the
// free list.
func (s *relStore) remove(i uint64, id ID) {
	s.tab.del(i)
	s.order.remove(s.links, id)
	for _, ix := range s.indexes {
		ix.remove(id)
	}
	s.links[id].next = s.free
	s.free = id
}

// insert stores the absent tuple t, whose hash is h and probe slot i, with
// multiplicity m > 0: under a freed id, or the next fresh one, growing every
// column first when they are full.
func (s *relStore) insert(i, h uint64, t tuple.Tuple, m int64) {
	id := s.free
	if id != End {
		s.free = s.links[id].next
		s.mults[id] = m
	} else {
		n := len(s.mults)
		if n == cap(s.mults) {
			s.reserve(max(2*n, minRows))
		}
		id = ID(n)
		s.mults = append(s.mults, m)
		s.links = append(s.links, link{})
	}
	s.tab.put(i, h, t, id)
	s.order.push(s.links, id)
	for _, ix := range s.indexes {
		ix.insert(s, id)
	}
}

// reserve grows every per-entry column of the store, its indexes' included,
// to room for n entries.
func (s *relStore) reserve(n int) {
	s.tab.vals = withCap(s.tab.vals, n*s.tab.arity)
	s.mults = withCap(s.mults, n)
	s.links = withCap(s.links, n)
	for _, ix := range s.indexes {
		ix.links = withCap(ix.links, n)
		ix.of = withCap(ix.of, n)
	}
}

// MustAdd is Add that panics on error; for code paths where the engine
// guarantees non-negative multiplicities.
func (r *Relation) MustAdd(t tuple.Tuple, m int64) {
	if err := r.Add(t, m); err != nil {
		panic(err)
	}
}

// MustAddPrior is MustAdd that returns the multiplicity t had before the
// change, found by the same probe: a read and a write of one tuple for the
// price of the write.
func (r *Relation) MustAddPrior(t tuple.Tuple, m int64) (prior int64) {
	if m == 0 {
		return r.Mult(t)
	}
	prior, err := r.addHashed(t, tuple.Hash(r.s.seed, t), m)
	if err != nil {
		panic(err)
	}
	return prior
}

// Set forces the multiplicity of t to m ≥ 0 (0 deletes). The tuple is
// hashed once for both the read and the write.
func (r *Relation) Set(t tuple.Tuple, m int64) {
	h := tuple.Hash(r.s.seed, t)
	cur := r.multHashed(h, t)
	if _, err := r.addHashed(t, h, m-cur); err != nil {
		panic(err)
	}
}

// FreezeInto pins the relation's current contents and returns a read-only
// handle on them. The handle observes exactly the state at the time of the
// call, no matter how the relation is mutated afterwards (the first mutation
// copies the contents aside — see the package comment). f is nil for a new
// handle, or a handle an earlier FreezeInto of this relation returned and
// Release let go: it is re-pinned and returned, so a reader that freezes at
// every epoch allocates only its first handle. Call Release when done
// reading so the writer can stop preserving this generation. The caller
// must order FreezeInto before any concurrent mutation (internal/core uses
// the engine writer lock); the returned handle itself may then be read from
// any goroutine not calling its methods concurrently.
func (r *Relation) FreezeInto(f *Relation) *Relation {
	if f == nil {
		f = &Relation{name: r.name, schema: r.schema, frozen: true}
	} else if !f.frozen || f.s != nil {
		panic(fmt.Sprintf("relation %s: FreezeInto of a handle that is not a released frozen one", r.name))
	}
	s := r.s
	s.pins.Add(1)
	f.s = s
	for i, ix := range s.indexes {
		if i == len(f.hand) {
			f.hand = append(f.hand, &Index{rel: f})
		}
		f.hand[i].s = ix
	}
	return f
}

// Release drops a frozen handle's pin on its store, allowing the writer to
// mutate that generation in place again (if no other pins remain), and
// forgets the store: nothing the handle keeps — its index handles included
// — holds a retired store reachable, so a kept handle costs no memory until
// FreezeInto re-pins it. The handle must not be read after Release.
// Releasing twice or releasing a non-frozen relation panics.
func (r *Relation) Release() {
	if !r.frozen {
		panic("relation: Release of a non-frozen relation")
	}
	if r.s == nil {
		panic("relation: Release called twice")
	}
	r.s.pins.Add(-1)
	r.s = nil
	for _, h := range r.hand {
		h.s = nil
	}
}

// StoreRef returns a weak pointer to the store r reads: a test instrument,
// by which tests check that nothing keeps a retired store reachable and
// that Release let a frozen handle's store go (its StoreRef is then nil).
func (r *Relation) StoreRef() weak.Pointer[relStore] { return weak.Make(r.s) }

// detach performs the copy-on-first-write: it retires the pinned store to
// its frozen readers and installs a fresh store for the writer — a copy of
// every column and probe array, or, when the caller is about to Clear and
// refill, an empty store with the same index definitions and capacities.
// Index handles are swapped onto the copied index stores, so cached *Index
// pointers stay valid. The retired store is never written again.
func (r *Relation) detach(empty bool) {
	if r.frozen {
		panic(fmt.Sprintf("relation %s: mutation of a frozen snapshot handle", r.name))
	}
	old := r.s
	s := &relStore{
		seed:    old.seed, // same seed: the copied slots stay valid
		tab:     old.tab.copy(empty),
		mults:   cloneCol(old.mults, empty),
		links:   cloneCol(old.links, empty),
		order:   old.order,
		free:    old.free,
		indexes: make([]*ixStore, len(old.indexes)),
		fill:    old.fill,
	}
	if empty {
		s.order, s.free, s.fill = noList, End, fillState{}
	}
	for i, ix := range old.indexes {
		s.indexes[i] = ix.copy(empty)
		r.hand[i].s = s.indexes[i]
	}
	r.s = s
}

// Clear removes all tuples (and empties all indexes) while keeping the
// index definitions. The columns are truncated and the probe arrays emptied
// in place, so a refill allocates nothing. On a store pinned by a live
// FreezeInto, Clear instead swaps in an empty store (detach) with the same
// capacities.
func (r *Relation) Clear() {
	if r.frozen {
		panic(fmt.Sprintf("relation %s: Clear of a frozen snapshot handle", r.name))
	}
	if r.s.pins.Load() != 0 {
		r.detach(true)
		return
	}
	s := r.s
	s.tab.clear()
	s.mults, s.links = s.mults[:0], s.links[:0]
	s.order, s.free, s.fill = noList, End, fillState{}
	for _, ix := range s.indexes {
		ix.clear()
	}
}

// First returns the first entry in insertion order, or End if empty.
func (r *Relation) First() ID { return r.s.order.head }

// Next returns the entry after id in insertion order, or End.
func (r *Relation) Next(id ID) ID { return r.s.links[id].next }

// At returns the tuple and multiplicity of entry id. Callers must not modify
// the tuple, which is valid until the entry is removed.
func (r *Relation) At(id ID) (tuple.Tuple, int64) { return r.s.tab.key(id), r.s.mults[id] }

// ForEach calls fn on every entry in insertion order. fn must not mutate
// the relation.
func (r *Relation) ForEach(fn func(t tuple.Tuple, m int64)) {
	s := r.s
	for id := s.order.head; id != End; id = s.links[id].next {
		fn(s.tab.key(id), s.mults[id])
	}
}

// ForEachUntil calls fn on every entry in insertion order until fn returns
// false. fn must not mutate the relation.
func (r *Relation) ForEachUntil(fn func(t tuple.Tuple, m int64) bool) {
	s := r.s
	for id := s.order.head; id != End; id = s.links[id].next {
		if !fn(s.tab.key(id), s.mults[id]) {
			return
		}
	}
}

// Clone returns a deep copy of the relation's contents (indexes are not
// copied; add them on the clone as needed).
func (r *Relation) Clone() *Relation {
	out := New(r.name, r.schema)
	r.ForEach(out.MustAdd)
	return out
}

// String renders a small relation for debugging.
func (r *Relation) String() string {
	s := r.name + r.schema.String() + "{"
	sep := ""
	r.ForEach(func(t tuple.Tuple, m int64) {
		s += fmt.Sprintf("%s%v->%d", sep, t, m)
		sep = ", "
	})
	return s + "}"
}
