package relation

import (
	"math/bits"

	"ivmeps/internal/tuple"
)

// table is the keyed half of a store: a set of key tuples numbered by ID, the
// keys in one value arena at arity stride, found through an open-addressing
// probe array. A relation's entries are one table keyed on the stored tuple,
// an index's buckets one keyed on the projected key.
//
// The probe array is linear probing over a power-of-two array of uint64
// slots. A slot holds id+1 in its low 32 bits (0 marks an empty slot) and the
// high 32 bits of the key's hash as a fingerprint, and a key's home slot is
// the top bits of its hash: the slot alone names its own home. A probe
// compares key values only on a fingerprint match; growth re-places every
// slot and deletion computes probe distances without touching a key or
// rehashing. Deletion backward-shifts the probe cluster into the hole instead
// of leaving a tombstone, so probe sequences stay as short as the load factor
// allows regardless of churn. The owner numbers the keys (ids it frees it
// hands out again); a table stores, finds and drops them.
type table struct {
	slots []uint64
	mask  uint64 // len(slots) − 1
	shift uint   // 64 − log2(len(slots)): a hash's home is h >> shift
	count int

	arity int
	vals  []tuple.Value // key of id at vals[id·arity : (id+1)·arity]
}

const (
	minSlots = 8
	idMask   = 1<<32 - 1 // the id+1 half of a slot

	// minRows is the first capacity of a relation's columns: room for the
	// entries of a small view without regrowing as its high-water mark creeps
	// up under churn.
	minRows = 64
)

// key returns id's key. Callers must not modify it.
func (t *table) key(id ID) tuple.Tuple {
	o := int(id) * t.arity
	return t.vals[o : o+t.arity : o+t.arity]
}

// find probes for key, whose hash is h: it returns key's slot and id, or the
// empty slot where key goes and false.
func (t *table) find(h uint64, key tuple.Tuple) (i uint64, id ID, ok bool) {
	if t.count == 0 {
		return h >> t.shift, 0, false
	}
	fp := h &^ idMask
	for i = h >> t.shift; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return i, 0, false
		}
		if s&^idMask == fp && t.key(ID(s-1)).Equal(key) {
			return i, ID(s - 1), true
		}
	}
}

// put stores key, whose hash is h, as id, in slot i — the empty slot find
// returned — or, when the table must grow first, in the slot that growth
// opens. id is either a freed id or the next fresh one.
func (t *table) put(i, h uint64, key tuple.Tuple, id ID) {
	if o := int(id) * t.arity; o == len(t.vals) {
		t.vals = append(t.vals, key...)
	} else {
		copy(t.vals[o:], key)
	}
	s := h&^idMask | (uint64(id) + 1)
	if t.count >= len(t.slots)*3/4 {
		t.grow(t.count + 1)
		i = t.place(s)
	}
	t.slots[i] = s
	t.count++
}

// place returns the first empty slot of slot value s's probe run.
func (t *table) place(s uint64) uint64 {
	i := s >> t.shift
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	return i
}

// del empties slot i, backward-shifting the probe cluster into the hole: any
// later member whose probe distance reaches back to (or past) the hole moves
// into it, opening a new hole at its old slot, until the first empty slot
// ends the cluster. The id stays the owner's to free.
func (t *table) del(i uint64) {
	for j := i; ; {
		j = (j + 1) & t.mask
		s := t.slots[j]
		if s == 0 {
			break
		}
		if (j-s>>t.shift)&t.mask >= (j-i)&t.mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = 0
	t.count--
}

// clear empties the table, keeping its arrays for the refill.
func (t *table) clear() {
	if t.count > 0 {
		clear(t.slots)
		t.count = 0
	}
	t.vals = t.vals[:0]
}

// grow doubles the probe array (or allocates the first) until n keys fit
// under the 3/4 load, and re-places every slot.
func (t *table) grow(n int) {
	size := max(len(t.slots), minSlots)
	for size*3/4 < n {
		size *= 2
	}
	if size == len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]uint64, size)
	t.mask = uint64(size - 1)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s != 0 {
			t.slots[t.place(s)] = s
		}
	}
}

// footprint is the bytes the table holds, by capacity.
func (t *table) footprint() int { return capBytes(t.slots) + capBytes(t.vals) }

// copy returns a private copy of the table — or, when empty, an empty table
// with the same probe array and column sizes — for a copy-on-write detach.
func (t *table) copy(empty bool) table {
	c := table{slots: make([]uint64, len(t.slots)), mask: t.mask, shift: t.shift, arity: t.arity,
		vals: cloneCol(t.vals, empty)}
	if !empty {
		copy(c.slots, t.slots)
		c.count = t.count
	}
	return c
}

// cloneCol returns a copy of col with col's capacity, or an empty column of
// that capacity.
func cloneCol[T any](col []T, empty bool) []T {
	if empty {
		col = col[:0]
	}
	return withCap(col, cap(col))
}

// withCap returns a copy of col with capacity n ≥ len(col), in one allocation.
func withCap[T any](col []T, n int) []T { return append(make([]T, 0, n), col...) }
