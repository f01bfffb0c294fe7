package relation

import "ivmeps/internal/tuple"

// Keys is a pooled set of key tuples numbered 0, 1, 2, … in first-add order:
// a table (table.go) that never deletes, its keys copied into the value
// arena, its probe array at most half full — most Adds of a grouping are
// misses, and a linear-probing miss scans about 2.5 slots at ½ load against
// 8.5 at the table's ¾. Reset clears the slots the ending use grew to and
// takes the probe array back to at most keysResetSlots, keeping its
// capacity; growth doubles the array inside that capacity and re-places the
// keys from their fingerprints (fps), without rehashing. So a use costs what
// it adds, not what an earlier use held, and a reused set stops allocating.
// Not safe for concurrent use.
type Keys struct {
	tab  table
	seed uint64
	fps  []uint32 // per id, the high half of its key's hash
}

const (
	keysMinSlots   = 64  // the first probe array: 32 keys
	keysResetSlots = 256 // the most a use starts from: 128 keys
)

// Reset empties the set for keys of the given arity, keeping its arrays. It
// must precede the first Add.
func (k *Keys) Reset(arity int) {
	for k.seed == 0 {
		k.seed = tuple.NewSeed()
	}
	k.tab.clear()
	if len(k.tab.slots) > keysResetSlots {
		k.tab.setSlots(k.tab.slots[:keysResetSlots])
	}
	k.tab.arity = arity
	k.fps = k.fps[:0]
}

// Add inserts t, copying it, unless an equal key is present. It returns the
// key's id and whether it was added; a new key's id is Len() before the call.
// t must have the arity of the last Reset.
func (k *Keys) Add(t tuple.Tuple) (id int, added bool) {
	h := tuple.Hash(k.seed, t)
	i, found, ok := k.tab.find(h, t)
	if ok {
		return int(found), false
	}
	n := k.tab.count
	if 2*n >= len(k.tab.slots) {
		k.grow()
		i = k.tab.place(h)
	}
	k.tab.put(i, h, t, ID(n))
	k.fps = append(k.fps, uint32(h>>32))
	return n, true
}

// Key returns the key numbered id. Callers must not modify it; it keeps its
// values until the next Reset, whatever is added in between.
func (k *Keys) Key(id int) tuple.Tuple { return k.tab.key(ID(id)) }

// Len returns the number of keys.
func (k *Keys) Len() int { return k.tab.count }

// grow doubles the probe array — inside its capacity when an earlier use
// left room, else in a new one — and places every key anew.
func (k *Keys) grow() {
	n := max(2*len(k.tab.slots), keysMinSlots)
	s := k.tab.slots
	if n <= cap(s) {
		clear(s) // the slots past len are zero: Reset cleared them
		s = s[:n]
	} else {
		s = make([]uint64, n)
	}
	k.tab.setSlots(s)
	for id, fp := range k.fps {
		v := uint64(fp)<<32 | uint64(id+1)
		k.tab.slots[k.tab.place(v)] = v
	}
}
