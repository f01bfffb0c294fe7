package relation

import "ivmeps/internal/tuple"

// oaTable is the open-addressing hash table behind Relation.entries and
// Index.buckets: linear probing over power-of-two slot arrays, keyed on
// unencoded tuples via tuple.Hash, with tombstone-free backward-shift
// deletion. Values are pointers (Entry or bucket) that expose the tuple
// they are keyed on; every slot additionally caches the key's hash, so
// probes compare tuples only on a 64-bit hash match, growth reinserts
// without rehashing, and deletion computes probe distances without touching
// the keys.
//
// The table never stores tombstones: del backward-shifts the following
// cluster members into the hole, so probe sequences stay as short as the
// load factor allows regardless of churn. clear empties the table while
// keeping the slot array, which makes refills after Relation.Clear (major
// rebalancing) allocation-free.

// oaKeyed constrains table values: a pointer type keyed by a tuple.
type oaKeyed interface {
	comparable
	keyTuple() tuple.Tuple
}

type oaSlot[V oaKeyed] struct {
	hash uint64
	val  V // the zero value (nil pointer) marks an empty slot
}

type oaTable[V oaKeyed] struct {
	slots []oaSlot[V]
	mask  uint64
	count int
	hint  int // Relation.GrowHint: grow sizes for min(hint, 8·count) if past doubling
}

const oaMinSlots = 8

// len returns the number of stored values.
func (t *oaTable[V]) len() int { return t.count }

// get returns the value keyed by key (with hash h), or the zero value.
func (t *oaTable[V]) get(h uint64, key tuple.Tuple) V {
	var zero V
	if t.count == 0 {
		return zero
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.val == zero {
			return zero
		}
		if s.hash == h && s.val.keyTuple().Equal(key) {
			return s.val
		}
	}
}

// put stores v under hash h. v's key must not already be present (callers
// probe with get first).
func (t *oaTable[V]) put(h uint64, v V) {
	if t.count >= len(t.slots)*3/4 {
		t.grow()
	}
	var zero V
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		if t.slots[i].val == zero {
			t.slots[i] = oaSlot[V]{hash: h, val: v}
			t.count++
			return
		}
	}
}

// del removes v (stored under hash h), backward-shifting the probe cluster
// into the hole so no tombstone is left behind. v must be present.
func (t *oaTable[V]) del(h uint64, v V) {
	var zero V
	i := h & t.mask
	for t.slots[i].val != v {
		i = (i + 1) & t.mask
	}
	// Backward shift: walk the cluster after the hole; any member whose
	// probe distance reaches back to (or past) the hole moves into it,
	// opening a new hole at its old slot. The first empty slot ends the
	// cluster.
	j := i
	for {
		j = (j + 1) & t.mask
		s := &t.slots[j]
		if s.val == zero {
			break
		}
		if (j-s.hash)&t.mask >= (j-i)&t.mask {
			t.slots[i] = *s
			i = j
		}
	}
	t.slots[i] = oaSlot[V]{}
	t.count--
}

// reserve sizes an empty table's slot array so that n values fit without
// growing (used when rebuilding a detached store from a known-size source).
func (t *oaTable[V]) reserve(n int) {
	if n == 0 || t.count > 0 {
		return
	}
	slots := oaMinSlots
	for slots*3/4 <= n {
		slots *= 2
	}
	if slots <= len(t.slots) {
		return
	}
	t.slots = make([]oaSlot[V], slots)
	t.mask = uint64(slots - 1)
}

// clear empties the table, keeping the slot array for reuse.
func (t *oaTable[V]) clear() {
	if t.count > 0 {
		clear(t.slots)
		t.count = 0
	}
}

// forEach calls fn on every stored value, in unspecified order. fn must not
// mutate the table.
func (t *oaTable[V]) forEach(fn func(V)) {
	var zero V
	for i := range t.slots {
		if t.slots[i].val != zero {
			fn(t.slots[i].val)
		}
	}
}

// grow doubles the slot array (or allocates the first, or follows the growth
// hint) and reinserts every value by its cached hash.
func (t *oaTable[V]) grow() {
	old := t.slots
	n := max(2*len(old), oaMinSlots)
	for n*3/4 <= min(t.hint, 8*t.count) {
		n *= 2
	}
	t.slots = make([]oaSlot[V], n)
	t.mask = uint64(n - 1)
	var zero V
	for i := range old {
		if old[i].val == zero {
			continue
		}
		for j := old[i].hash & t.mask; ; j = (j + 1) & t.mask {
			if t.slots[j].val == zero {
				t.slots[j] = old[i]
				break
			}
		}
	}
}
