package relation

import (
	"fmt"
	"math/bits"

	"ivmeps/internal/tuple"
)

// The bulk fill path: Reserve, Append and Seal (see Bulk fills in the
// package comment).

const (
	// partBits sizes a seal's partitions: about 2^14 slots (128 KiB) each.
	partBits = 14
	// maxPartBits caps a seal at 2^8 partitions, whose offsets then fit in a
	// fixed array on the stack.
	maxPartBits = 8
	// firstChunk is the most rows a fill appends before its first seal when
	// its columns have no room for them: enough to see whether the rows
	// merge, and little enough to respect the 8× bound when they do.
	firstChunk = 8 * minRows
)

// fillState is the bookkeeping of an open bulk fill.
type fillState struct {
	pend     int  // rows appended since the last seal, the last ones of the columns
	want     int  // rows the fill announced (Reserve)
	appended int  // rows the fill appended
	merged   bool // a seal of the fill merged a row into an equal one
}

// writable returns the store a mutation of r writes: r's own, detached
// first when a frozen handle pins it.
func (r *Relation) writable() *relStore {
	if r.frozen {
		panic(fmt.Sprintf("relation %s: mutation of a frozen snapshot handle", r.name))
	}
	if r.s.pins.Load() != 0 {
		r.detach(false)
	}
	return r.s
}

// Reserve announces that n rows are about to be appended (Append) and gives
// the columns room for the first of them. While the fill's seals merge
// nothing the columns grow straight to the announced count, so a fill of n
// distinct rows allocates its columns twice at most: for its first 512 rows,
// and for n.
func (r *Relation) Reserve(n int) {
	s := r.writable()
	s.fill.want += n
	if first := min(n, firstChunk); cap(s.mults)-len(s.mults) < first {
		s.reserve(max(minRows, len(s.mults)+first))
	}
}

// Append adds the row {t → m} at the next id, without probing: the next
// Seal places it, merging it into an equal row appended or stored before it.
// Until then the relation's readers may not see it, and Add panics. t is
// copied; m = 0 is a no-op.
func (r *Relation) Append(t tuple.Tuple, m int64) {
	s := r.writable()
	if m == 0 {
		return
	}
	if len(t) != len(r.schema) {
		panic(r.arityError(t))
	}
	if len(s.mults) == cap(s.mults) {
		r.makeRoom()
	}
	s.tab.vals = append(s.tab.vals, t...)
	s.mults = append(s.mults, m)
	s.links = append(s.links, link{})
	s.fill.pend++
	s.fill.appended++
}

// Seal places the rows appended since the last seal and closes the fill.
// The relation then holds exactly what Add of each appended row, in append
// order, would have left: the same entries in the same insertion order, the
// same index buckets in the same order, the same multiplicities. A row that
// takes a multiplicity below zero panics, leaving the relation unusable.
func (r *Relation) Seal() {
	s := r.writable()
	r.seal()
	// A fill that outgrew its columns chunks again when it is repeated (a
	// major rebalance refills every view): give the repeat room for all its
	// rows or leave it half the columns free, so it never has to grow them.
	if n := len(s.mults); s.fill.appended > cap(s.mults) && 2*n > cap(s.mults) {
		s.reserve(min(s.fill.appended, 2*n))
	}
	s.fill = fillState{}
}

// makeRoom is Append's answer to full columns: seal what the fill appended so
// far, then grow the columns if they are still full, or more than half full
// with rows still to come that do not fit — to the announced count while no
// seal has merged a row, and at most 8× their rows once one has.
func (r *Relation) makeRoom() {
	s := r.s
	r.seal()
	n, c := len(s.mults), cap(s.mults)
	rest := max(s.fill.want-s.fill.appended, 1)
	if n < c && (c-n >= rest || 2*n <= c) {
		return
	}
	size := n + rest
	if s.fill.merged {
		size = min(size, 8*n)
	}
	s.reserve(max(2*n, minRows, size))
}

// seal places the rows appended since the last seal: one partition of the
// probe array at a time, each row into the slot Add would find for it. A row
// equal to a stored or earlier appended one merges into it, leaving a gap in
// the ids that compact closes. The survivors are linked at the tail of the
// insertion order and indexed, in append order.
func (r *Relation) seal() {
	s := r.s
	t := &s.tab
	hi := len(s.mults)
	lo := hi - s.fill.pend
	if lo == hi {
		return
	}
	s.fill.pend = 0
	t.grow(t.count + hi - lo)

	// Counting and scatter pass: buf, the free links of the appended rows,
	// gets each row's slot value, ordered by partition and, within one, by id.
	pbits := min(max(bits.TrailingZeros(uint(len(t.slots)))-partBits, 0), maxPartBits)
	pshift := uint(64 - pbits)
	var off [1<<maxPartBits + 1]int
	neg := false
	for id := lo; id < hi; id++ {
		off[tuple.Hash(s.seed, t.key(ID(id)))>>pshift+1]++
		neg = neg || s.mults[id] < 0
	}
	for p := 1; p < len(off); p++ {
		off[p] += off[p-1]
	}
	buf := s.links[lo:hi]
	for id := lo; id < hi; id++ {
		h := tuple.Hash(s.seed, t.key(ID(id)))
		p := h >> pshift
		v := h&^idMask | uint64(id+1)
		buf[off[p]] = link{ID(v), ID(v >> 32)}
		off[p]++
	}

	// Placement: the probes of one partition's rows stay in its window of the
	// probe array, give or take the clusters that cross its edge.
	merged := false
	for _, l := range buf {
		v := uint64(l.prev) | uint64(l.next)<<32
		id := ID(v - 1)
		for i := v >> t.shift; ; i = (i + 1) & t.mask {
			x := t.slots[i]
			if x == 0 {
				if neg && s.mults[id] < 0 {
					panic(r.multError(t.key(id), 0, s.mults[id]))
				}
				t.slots[i] = v
				t.count++
				break
			}
			if x&^idMask == v&^idMask && t.key(ID(x-1)).Equal(t.key(id)) {
				r.merge(i, ID(x-1), id, lo)
				merged = true
				break
			}
		}
	}
	last := s.order.tail
	if merged {
		s.fill.merged = true
		hi = r.compact(lo, hi)
	} else {
		for id := ID(lo); id < ID(hi); id++ {
			s.order.push(s.links, id)
		}
	}
	first := s.order.head
	if last != End {
		first = s.links[last].next
	}
	for _, ix := range s.indexes {
		ix.links, ix.of = ix.links[:hi], ix.of[:hi]
		for id := first; id != End; id = s.links[id].next {
			ix.insert(s, id)
		}
	}
}

// merge adds appended row id's multiplicity to the equal row e in slot i and
// empties id. An e that reaches zero leaves as Add would remove it; a later
// equal row is then new again, and enters the insertion order at its own
// place.
func (r *Relation) merge(i uint64, e, id ID, lo int) {
	s := r.s
	have, m := s.mults[e], s.mults[id]
	if have+m < 0 {
		panic(r.multError(s.tab.key(e), have, m))
	}
	s.mults[e], s.mults[id] = have+m, 0
	switch {
	case have+m != 0:
	case int(e) < lo:
		s.remove(i, e)
	default:
		s.tab.del(i) // an appended row: emptied, compact drops it
	}
}

// compact closes the gaps merged rows left in the appended ids [lo, hi) and
// links the survivors at the tail of the insertion order, in append order. A
// survivor past the new end moves into the lowest open gap, and only its slot
// is renumbered, so a fill moves as many rows as merged. It returns the new
// end of the ids.
func (r *Relation) compact(lo, hi int) int {
	s := r.s
	t := &s.tab
	k := t.arity
	n := lo
	for o := lo; o < hi; o++ {
		if s.mults[o] != 0 {
			n++
		}
	}
	gap := lo
	for o := lo; o < hi; o++ {
		if s.mults[o] == 0 {
			continue
		}
		id := ID(o)
		if o >= n { // every id below n has been linked or skipped: fill the next gap
			for s.mults[gap] != 0 {
				gap++
			}
			i, _, _ := t.find(tuple.Hash(s.seed, t.key(id)), t.key(id))
			t.slots[i] = t.slots[i]&^idMask | uint64(gap+1)
			copy(t.vals[gap*k:(gap+1)*k], t.vals[o*k:(o+1)*k])
			s.mults[gap] = s.mults[o]
			id = ID(gap)
		}
		s.order.push(s.links, id)
	}
	t.vals, s.mults, s.links = t.vals[:n*k], s.mults[:n], s.links[:n]
	return n
}
