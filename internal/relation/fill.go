package relation

import (
	"fmt"
	"math/bits"
	"sync"

	"ivmeps/internal/tuple"
)

// The bulk fill paths: Reserve, Append and Seal, and OpenDelta, Append and
// SealDelta (see Bulk fills in the package comment).

const (
	// partBits sizes a seal's partitions: about 2^14 slots (128 KiB) each.
	partBits = 14
	// maxPartBits caps a seal at 2^8 partitions, whose offsets then fit in a
	// fixed array on the stack.
	maxPartBits = 8
	// FirstChunk is the most rows a fill appends before its first seal when
	// its columns have no room for them: enough to see whether the rows
	// merge, and little enough to respect the 8× bound when they do. A fill
	// that announced no count seals as its columns fill until it has
	// appended this many, for the same reason, and Extend opens rows only
	// once a seal has placed this many without a merge.
	FirstChunk = 8 * minRows
)

// traceDeferred is nil outside tests: a test sets it to count the rows a
// seal on several helpers defers to its caller (placeOn).
var traceDeferred func(rows int)

// fillState is the bookkeeping of an open bulk fill.
type fillState struct {
	pend     int  // rows appended since the last seal, the last ones of the columns
	want     int  // rows the fill announced (Reserve)
	appended int  // rows the fill appended
	merged   bool // a seal of the fill merged a row into an equal one
	delta    bool // a delta fill (OpenDelta): SealDelta aggregates and applies its rows
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
	if first := min(n, FirstChunk); cap(s.mults)-len(s.mults) < first {
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

// Extend opens the next n rows of the fill at once, for writers that fill
// them out of order (Put) — internal/core's helpers, each writing chunks of
// a join's rows. It returns the id of the first. A seal of the fill must
// have placed its first FirstChunk rows without a merge — the evidence on
// which makeRoom grows the columns straight to the announced count — or
// Extend opens nothing and returns false. Every opened row must be Put
// before the next Seal, which places them with the rest.
func (r *Relation) Extend(n int) (first ID, ok bool) {
	s := r.writable()
	f := &s.fill
	if f.delta || f.merged || f.appended-f.pend < FirstChunk {
		return 0, false
	}
	at := len(s.mults)
	if cap(s.mults)-at < n {
		s.reserve(at + n)
	}
	s.tab.vals = s.tab.vals[:(at+n)*s.tab.arity]
	s.mults, s.links = s.mults[:at+n], s.links[:at+n]
	f.pend += n
	f.appended += n
	return ID(at), true
}

// Put writes the row {t → m}, m ≠ 0, at id, a row Extend opened; t is
// copied. Puts of distinct ids may run concurrently with one another, but
// not with any other method of the relation.
func (r *Relation) Put(id ID, t tuple.Tuple, m int64) {
	s := r.s
	k := s.tab.arity
	copy(s.tab.vals[int(id)*k:int(id+1)*k], t)
	s.mults[id] = m
}

// SizeSlots grows the probe array for every row the open fill holds, as the
// next Seal would before it places them. It touches no column, so it may
// run concurrently with Puts: on a goroutine of its own beside them, it
// takes the array's allocation off the seal.
func (r *Relation) SizeSlots() {
	s := r.s
	s.tab.grow(s.tab.count + s.fill.pend)
}

// Seal places the rows appended since the last seal and closes the fill, on
// p ≥ 1 goroutines (placeOn) when p > 1 and no row's multiplicity is
// negative. The relation then holds exactly what Add of each appended row,
// in append order, would have left: the same entries in the same insertion
// order, the same index buckets in the same order, the same multiplicities.
// A row that takes a multiplicity below zero panics, leaving the relation
// unusable.
func (r *Relation) Seal(p int) {
	s := r.writable()
	if s.fill.delta {
		panic(fmt.Sprintf("relation %s: Seal of a delta fill (SealDelta it)", r.name))
	}
	r.seal(p)
	// A fill that outgrew its columns chunks again when it is repeated (a
	// major rebalance refills every view): give the repeat room for all its
	// rows or leave it half the columns free, so it never has to grow them.
	if n := len(s.mults); s.fill.appended > cap(s.mults) && 2*n > cap(s.mults) {
		s.reserve(min(s.fill.appended, 2*n))
	}
	s.fill = fillState{}
}

// OpenDelta opens a delta fill: the rows appended until SealDelta are a
// delta of the relation — δR — to aggregate and apply in one pass, not rows
// to store in sequence. Its columns grow as rows come, with no seal between.
func (r *Relation) OpenDelta() {
	s := r.writable()
	if s.fill.pend != 0 {
		panic(fmt.Sprintf("relation %s: OpenDelta during an open fill", r.name))
	}
	s.fill.delta = true
}

// SealDelta closes a delta fill. It aggregates the appended rows by tuple and
// applies each non-zero net change exactly as Add of the aggregated rows, in
// the order their tuples first appeared, would — an insert, a merge or a
// removal — leaving the same entries under the same ids, the same insertion
// order and index buckets, the same multiplicities. It calls emit with each
// non-zero net row in that order, unless it is nil, and returns their number;
// emit must copy the tuple and leave the relation alone. A net change that
// takes a multiplicity below zero panics as MustAdd does, leaving the
// relation unusable.
func (r *Relation) SealDelta(emit func(t tuple.Tuple, m int64)) (rows int) {
	s := r.writable()
	if !s.fill.delta {
		panic(fmt.Sprintf("relation %s: SealDelta without OpenDelta", r.name))
	}
	// place writes a record per appended row past the end of the links:
	// give them room.
	if need := len(s.links) + s.fill.pend; cap(s.links) < need {
		s.links = withCap(s.links, need+need/4)
	}
	lo, hi, _ := r.place(true, 1)
	s.fill = fillState{}
	if lo == hi {
		return 0
	}
	return r.settle(lo, hi, emit)
}

// makeRoom is Append's answer to full columns. A delta fill doubles them: its
// rows aggregate only when it is sealed. So does a fill that announced no
// count once its first chunk of rows has been sealed without a merge: Seal
// places the rest at once, in a probe array it sizes once. Any other row
// fill seals what it appended so far, then grows the columns if they are
// still full, or more than half full with rows still to come that do not
// fit — to the announced count while no seal has merged a row, and at most
// 8× their rows once one has.
func (r *Relation) makeRoom() {
	s := r.s
	if s.fill.delta || s.fill.want == 0 && s.fill.appended > FirstChunk && !s.fill.merged {
		s.reserve(max(2*len(s.mults), minRows))
		return
	}
	r.seal(1)
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

// seal places the rows appended since the last seal (place, on p
// goroutines), merging equal rows in sequence; the survivors are linked at
// the tail of the insertion order and indexed, in append order, on the
// caller's goroutine.
func (r *Relation) seal(p int) {
	s := r.s
	lo, hi, merged := r.place(false, p)
	if lo == hi {
		return
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

// place puts the rows appended since the last seal, the ids [lo, hi), into
// the probe array: one partition of it at a time, each row into the slot Add
// would find for it. In a row fill (delta false) a row equal to a stored or
// earlier appended one merges into it (merge), and merged says one did. A
// row fill with p > 1 runs on p goroutines (placeOn).
//
// In a delta fill only appended rows merge: a tuple's first row is its
// accumulator, and its later rows add into it and empty. An accumulator takes
// over the slot of a stored equal row — the row's id leaves the slot for the
// accumulator's until settle puts it back — or else the empty slot its probe
// ends in, the table growing only as new tuples fill it. place records what
// settle needs of each row past the end of the links, at hi + id − lo: the
// stored row and the slot of an accumulator, or {End, End} for a row that
// merged.
func (r *Relation) place(delta bool, p int) (lo, hi int, merged bool) {
	s := r.s
	t := &s.tab
	hi = len(s.mults)
	lo = hi - s.fill.pend
	if lo == hi {
		return lo, hi, false
	}
	s.fill.pend = 0
	if delta {
		t.grow(t.count + 1) // most rows may merge into stored ones: grow as they come
	} else {
		t.grow(t.count + hi - lo)
	}

	// Counting and scatter pass: buf, the free links of the appended rows,
	// gets each row's slot value, ordered by partition and, within one, by id.
	// A fill on helpers has a partition for each at least.
	slotBits := bits.TrailingZeros(uint(len(t.slots)))
	pbits := uint(min(max(slotBits-partBits, bits.Len(uint(p-1))), maxPartBits, slotBits))
	if p > 1 && !delta {
		return lo, hi, r.placeOn(lo, hi, pbits, min(p, 1<<pbits))
	}
	var off [1 << maxPartBits]int
	neg := s.count(lo, hi, 64-pbits, &off) && !delta
	for q, at := 0, 0; q < 1<<pbits; q++ {
		off[q], at = at, at+off[q]
	}
	buf := s.links[lo:hi]
	s.scatter(lo, hi, 64-pbits, buf, &off)
	return lo, hi, r.placeRows(buf, lo, hi, delta, neg)
}

// count adds each appended row of the ids [a, b) to hist, under the
// partition of its home slot, and reports whether one has a negative
// multiplicity.
func (s *relStore) count(a, b int, pshift uint, hist *[1 << maxPartBits]int) (neg bool) {
	for id := a; id < b; id++ {
		hist[tuple.Hash(s.seed, s.tab.key(ID(id)))>>pshift]++
		neg = neg || s.mults[id] < 0
	}
	return neg
}

// scatter writes the slot value of each appended row of the ids [a, b) into
// buf, at the next offset at holds for the row's partition.
func (s *relStore) scatter(a, b int, pshift uint, buf []link, at *[1 << maxPartBits]int) {
	for id := a; id < b; id++ {
		h := tuple.Hash(s.seed, s.tab.key(ID(id)))
		q := h >> pshift
		v := h&^idMask | uint64(id+1)
		buf[at[q]] = link{ID(v), ID(v >> 32)}
		at[q]++
	}
}

// placeRows places the rows of buf, slot values the scatter pass wrote, in
// order: the placement of place. The probes of one partition's rows stay in
// its window of the probe array, give or take the clusters that cross its
// edge — and a growth of the array keeps them there, each window doubling
// with it. neg says a row of a row fill may take a multiplicity below zero.
func (r *Relation) placeRows(buf []link, lo, hi int, delta, neg bool) (merged bool) {
	s := r.s
	t := &s.tab
	var rec []link
	if delta {
		rec = s.links[hi : 2*hi-lo]
	}
	for _, l := range buf {
		v := uint64(l.prev) | uint64(l.next)<<32
		id := ID(v - 1)
		for i := v >> t.shift; ; i = (i + 1) & t.mask {
			x := t.slots[i]
			if x == 0 {
				if neg && s.mults[id] < 0 {
					panic(r.multError(t.key(id), 0, s.mults[id]))
				}
				if t.count >= len(t.slots)*3/4 { // a delta fill's, which grows as it places
					t.grow(t.count + 1)
					for j, y := range t.slots {
						if o := int(y&idMask) - 1; o >= lo && o < hi {
							rec[o-lo].next = ID(j)
						}
					}
					i = t.place(v)
				}
				t.slots[i] = v
				t.count++
				if delta {
					rec[int(id)-lo] = link{End, ID(i)}
				}
				break
			}
			if x&^idMask != v&^idMask || !t.key(ID(x-1)).Equal(t.key(id)) {
				continue
			}
			e := ID(x - 1)
			switch {
			case !delta:
				r.merge(i, e, id, lo)
				merged = true
			case int(e) < lo: // the stored row: the accumulator takes its slot
				t.slots[i] = v
				rec[int(id)-lo] = link{e, ID(i)}
			default:
				s.mults[e] += s.mults[id]
				s.mults[id] = 0
				rec[int(id)-lo] = link{End, End}
			}
			break
		}
	}
	return merged
}

// placeOn is place's row fill on p > 1 helpers, for a probe array of
// 2^pbits partitions, p at most. The counting and scatter passes split the
// ids [lo, hi) into p ranges, one a helper; the ranges' partition counts are
// summed in partition order, then range order, so the scatter still orders
// each partition's rows by id. Unless a row's multiplicity is negative —
// then placeRows places them all on the caller's goroutine — each helper
// then places a contiguous range of partitions (placeWindow), and the caller
// places the rows they deferred afterwards, helper by helper: within one
// helper's in id order among equal rows, which share a home slot and so a
// helper. A row equal to a deferred one is deferred too, so the survivor of
// every merge is the row a placement in sequence keeps. The helpers run the
// three passes on one goroutine each, the caller's the first, meeting at a
// barrier after each of the first two.
func (r *Relation) placeOn(lo, hi int, pbits uint, p int) (merged bool) {
	s := r.s
	t := &s.tab
	pshift, parts, width := 64-pbits, 1<<pbits, len(t.slots)>>pbits
	buf := s.links[lo:hi]
	type helper struct {
		hist           [1 << maxPartBits]int // the range's rows per partition, then where its next goes in buf
		neg            bool
		rows           []link // the window's rows in buf; the deferred ones end up first
		placed, defers int
		merged         bool
	}
	hs := make([]helper, p)
	var (
		start                      [1<<maxPartBits + 1]int // where each partition's rows start in buf
		neg                        bool
		counted, summed, scattered sync.WaitGroup // one-shot barriers
	)
	counted.Add(p)
	summed.Add(1)
	scattered.Add(p)
	run := func(k int) {
		h := &hs[k]
		a, b := lo+k*(hi-lo)/p, lo+(k+1)*(hi-lo)/p
		h.neg = s.count(a, b, pshift, &h.hist)
		counted.Done()
		if k == 0 {
			counted.Wait()
			at := 0
			for q := range parts {
				start[q] = at
				for i := range hs {
					hs[i].hist[q], at = at, at+hs[i].hist[q]
				}
			}
			start[parts] = at
			for i := range hs {
				neg = neg || hs[i].neg
			}
			summed.Done()
		}
		summed.Wait()
		s.scatter(a, b, pshift, buf, &h.hist)
		scattered.Done()
		scattered.Wait()
		if !neg {
			a, b = k*parts/p, (k+1)*parts/p
			h.rows = buf[start[a]:start[b]]
			h.placed, h.merged, h.defers = s.placeWindow(h.rows, uint64(b*width), lo)
		}
	}
	var done sync.WaitGroup
	done.Add(p - 1)
	for k := 1; k < p; k++ {
		go func() {
			defer done.Done()
			run(k)
		}()
	}
	run(0)
	done.Wait()
	if neg {
		return r.placeRows(buf, lo, hi, false, true)
	}
	deferred := 0
	for _, h := range hs {
		t.count += h.placed
		merged = merged || h.merged
		deferred += h.defers
	}
	for _, h := range hs {
		merged = r.placeRows(h.rows[:h.defers], lo, hi, false, false) || merged
	}
	if traceDeferred != nil {
		traceDeferred(deferred)
	}
	return merged
}

// placeWindow places the rows of buf, all homed in one helper's window of the
// probe array, which ends at slot end, as placeRows places a row fill's with
// no negative multiplicity: a row merges into an equal one — stored or
// placed before it, and homed in the same slot, so in this window — or takes
// the first empty slot of its probe. A probe that would reach end, out of the
// window, is deferred instead: the row moves to the front of buf, in order.
// So is a row equal to a stored one, the ids below lo, when the relation has
// an index: the merge changes a bucket sum, and rows of two windows may share
// a bucket. It touches no slot outside the window and no multiplicity but
// those of its rows and of the appended rows they merge into. It returns the
// rows it placed, whether one merged, and how many it deferred.
func (s *relStore) placeWindow(buf []link, end uint64, lo int) (placed int, merged bool, deferred int) {
	t := &s.tab
	indexed := len(s.indexes) > 0
	for _, l := range buf {
		v := uint64(l.prev) | uint64(l.next)<<32
		id := ID(v - 1)
		for i := v >> t.shift; ; i++ {
			if i == end {
				buf[deferred] = l
				deferred++
				break
			}
			x := t.slots[i]
			if x == 0 {
				t.slots[i] = v
				placed++
				break
			}
			if x&^idMask != v&^idMask || !t.key(ID(x-1)).Equal(t.key(id)) {
				continue
			}
			e := ID(x - 1)
			if indexed && int(e) < lo {
				buf[deferred] = l
				deferred++
				break
			}
			s.mults[e] += s.mults[id]
			s.mults[id] = 0
			merged = true
			break
		}
	}
	return placed, merged, deferred
}

// merge adds appended row id's multiplicity to the equal row e in slot i and
// empties id: to a stored e's bucket sums too (addMult), while an appended e
// is indexed, sum and all, once the seal has placed every row. An e that
// reaches zero leaves as Add would remove it; a later equal row is then new
// again, and enters the insertion order at its own place.
func (r *Relation) merge(i uint64, e, id ID, lo int) {
	s := r.s
	have, m := s.mults[e], s.mults[id]
	if have+m < 0 {
		panic(r.multError(s.tab.key(e), have, m))
	}
	if s.mults[id] = 0; int(e) < lo {
		s.addMult(e, m)
	} else {
		s.mults[e] = have + m
	}
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

// settle applies a delta fill's accumulators in id order, the order their
// tuples first appeared, as Add of each would, and emits the non-zero ones,
// from place's records: no row is hashed again, and no key compared. A change
// to a stored row gives its slot back; a new row takes a freed id, or the next
// fresh one, moving there and renumbering its slot, and one that stays where
// it was appended touches no slot at all. An accumulator's slot is where place
// left it or, when a deletion since shifted it back, a little before. The
// merged rows leave gaps the fresh ids close.
func (r *Relation) settle(lo, hi int, emit func(t tuple.Tuple, m int64)) (rows int) {
	s := r.s
	t := &s.tab
	k := t.arity
	rec := s.links[hi : 2*hi-lo]
	n := lo // the next fresh id
	for o := lo; o < hi; o++ {
		l := rec[o-lo]
		if l.next == End {
			continue // merged
		}
		net, key, e := s.mults[o], t.key(ID(o)), l.prev
		if e == End && net > 0 {
			if rows++; emit != nil {
				emit(key, net)
			}
			id := s.free
			if id != End {
				s.free = s.links[id].next
			} else {
				id = ID(n)
				n++
			}
			if int(id) != o {
				i := accSlot(t, l, o)
				copy(t.vals[int(id)*k:int(id+1)*k], key)
				t.slots[i] = t.slots[i]&^idMask | uint64(id+1)
			}
			s.mults[id] = net
			s.order.push(s.links, id)
			for _, ix := range s.indexes {
				ix.insert(s, id)
			}
			continue
		}
		i := accSlot(t, l, o)
		if e == End {
			if net < 0 {
				panic(r.multError(key, 0, net))
			}
			t.del(i) // the tuple's rows cancelled
			continue
		}
		t.slots[i] = t.slots[i]&^idMask | uint64(e+1)
		if net == 0 {
			continue
		}
		have := s.mults[e]
		if have+net < 0 {
			panic(r.multError(key, have, net))
		}
		if rows++; emit != nil {
			emit(key, net)
		}
		if s.addMult(e, net); have+net == 0 {
			s.remove(i, e)
		}
	}
	t.vals, s.mults, s.links = t.vals[:n*k], s.mults[:n], s.links[:n]
	return rows
}

// accSlot returns the slot of accumulator o, whose record is l: the one place
// gave it, or one before it that a deletion shifted it back to.
func accSlot(t *table, l link, o int) uint64 {
	i := uint64(l.next)
	for t.slots[i]&idMask != uint64(o+1) {
		i = (i - 1) & t.mask
	}
	return i
}
