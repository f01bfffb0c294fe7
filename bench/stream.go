package main

import (
	"math"
	"math/rand"
)

// relSpec is one base relation of a workload's query as the generator sees
// it: binary, with the join key (the variable shared with the other atom) in
// column keyPos and a never-repeating value in the other column. base tuples
// are loaded before Build; the last window of them slide, the rest are
// permanent.
type relSpec struct {
	name   string
	keyPos int
	base   int
	window int
}

// op is one single-tuple update: mult is +1 (insert) or −1 (delete).
type op struct {
	rel  int // index into stream.rels
	row  []int64
	mult int64
}

// streamConfig sizes a generator. Every field is part of the workload
// definition; only seed varies between runs.
type streamConfig struct {
	rels  []relSpec
	keys  int     // join-key domain size
	skew  float64 // Zipf exponent over the key domain; 0 means uniform
	table int     // keys are dealt from shuffled tables of this many stratified draws (uniform: one of each key)
	lanes int     // independent sub-streams over disjoint key sets (one per concurrent committer)
}

// stream generates a workload's inputs from a seed: the base tuples and a
// never-repeating sliding-window update stream over them.
//
// Each insert is a fresh tuple (its non-key column comes from a bijection of
// a counter, so no tuple is ever generated twice, within or across
// repetitions) and each delete removes the oldest tuple still present in the
// same relation and lane, so a delete always hits a present tuple and a
// paired insert+delete leaves N unchanged. Because tuples are never
// re-inserted, the engine's working set keeps moving through memory instead
// of cycling over a cache-resident handful of rows, which is what flatters
// insert/inverse micro-benchmarks.
//
// Join keys are not drawn independently: each (lane, relation) deals them
// from a table of cfg.table keys that holds the distribution's quantiles at
// evenly spaced probabilities — so a table's worth of tuples has exactly the
// degree profile of the distribution — shuffled afresh from the seed every
// time it runs out. The seed thus decides which tuple carries which key, in
// what order, and every value, but not the shape of the data: the exact-count
// metrics (view deltas per update, allocations per row) measure the engine on
// the same skew whatever the seed, and differ between seeds only through
// ordering effects.
//
// Lanes partition the key domain (key ≡ lane mod lanes), so updates of
// different lanes never meet on a join key and the engine's work does not
// depend on how concurrent committers interleave.
type stream struct {
	cfg  streamConfig
	rng  *rand.Rand
	deal [][]*dealer // [lane][rel]

	counter uint64 // fresh-value counter
	mul     uint64 // odd multiplier of the counter bijection
	salt    uint64

	perm  [][][]int64 // [rel] permanent base rows
	fifo  [][]*fifo   // [lane][rel] sliding rows, oldest first
	arena []int64     // backing storage rows are carved from

	sum uint64 // FNV-1a, folded over 64-bit words, of every generated tuple and op

	// degree[key][rel] is the number of live tuples of rel with that join
	// key, and joinSize the number of result tuples they produce: both
	// queries join their two atoms on the key alone and every other column
	// is unique, so the result has Σ_key degree[key][0]·degree[key][1]
	// distinct tuples, all of multiplicity one. The generator maintains it
	// per op so every enumeration pass can be checked against it for free.
	degree   map[int64]*[2]int32
	joinSize int64
}

// fifo is a queue of rows; popped slots are reclaimed in bulk.
type fifo struct {
	rows [][]int64
	head int
}

func (f *fifo) push(r []int64) { f.rows = append(f.rows, r) }

func (f *fifo) len() int { return len(f.rows) - f.head }

func (f *fifo) pop() []int64 {
	r := f.rows[f.head]
	f.rows[f.head] = nil
	f.head++
	if f.head > 1024 && f.head*2 > len(f.rows) {
		n := copy(f.rows, f.rows[f.head:])
		clear(f.rows[n:])
		f.rows = f.rows[:n]
		f.head = 0
	}
	return r
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// newStream generates the base tuples.
func newStream(seed int64, cfg streamConfig) *stream {
	if cfg.lanes < 1 {
		cfg.lanes = 1
	}
	s := &stream{cfg: cfg, rng: rand.New(rand.NewSource(seed)), sum: fnvOffset, degree: make(map[int64]*[2]int32)}
	s.mul = s.rng.Uint64() | 1
	s.salt = s.rng.Uint64()
	table := quantileTable(cfg.keys/cfg.lanes, cfg.skew, cfg.table)
	s.perm = make([][][]int64, len(cfg.rels))
	s.fifo = make([][]*fifo, cfg.lanes)
	s.deal = make([][]*dealer, cfg.lanes)
	for l := range s.fifo {
		s.fifo[l] = make([]*fifo, len(cfg.rels))
		s.deal[l] = make([]*dealer, len(cfg.rels))
		for r := range s.fifo[l] {
			s.fifo[l][r] = &fifo{}
			s.deal[l][r] = &dealer{keys: append([]int64(nil), table...), next: len(table)}
		}
	}
	for r, rs := range cfg.rels {
		for i := 0; i < rs.base; i++ {
			lane := i % cfg.lanes
			row := s.freshRow(lane, r)
			s.mix(r, row, 1)
			s.count(r, row, 1)
			if i < rs.base-rs.window {
				s.perm[r] = append(s.perm[r], row)
			} else {
				s.fifo[lane][r].push(row)
			}
		}
	}
	return s
}

// liveRows calls fn for every tuple currently in the database — the base
// before any update, the final database after the last one.
func (s *stream) liveRows(fn func(rel int, row []int64)) {
	for r := range s.cfg.rels {
		for _, row := range s.perm[r] {
			fn(r, row)
		}
		for l := range s.fifo {
			f := s.fifo[l][r]
			for _, row := range f.rows[f.head:] {
				fn(r, row)
			}
		}
	}
}

// liveCount is N: the number of tuples currently in the database.
func (s *stream) liveCount() int {
	n := 0
	for r := range s.cfg.rels {
		n += len(s.perm[r])
		for l := range s.fifo {
			n += s.fifo[l][r].len()
		}
	}
	return n
}

// freshValue maps the next counter value through a bijection of [0, 2^53),
// so values never repeat, look scattered rather than sequential, and survive
// the service workloads' JSON round trip exactly.
func (s *stream) freshValue() int64 {
	const bits = 53
	s.counter++
	return int64((s.counter*s.mul ^ s.salt) & (1<<bits - 1))
}

// dealer hands out one table of keys in shuffled order, over and over.
type dealer struct {
	keys []int64
	next int
}

func (d *dealer) draw(rng *rand.Rand) int64 {
	if d.next == len(d.keys) {
		rng.Shuffle(len(d.keys), func(i, j int) { d.keys[i], d.keys[j] = d.keys[j], d.keys[i] })
		d.next = 0
	}
	k := d.keys[d.next]
	d.next++
	return k
}

// quantileTable returns n keys out of [0, keys): the quantiles, at the
// probabilities (j+½)/n, of the Zipf distribution with P(k) ∝ (1+k)^−skew,
// or of the uniform one for skew 0 (then n = keys gives every key once).
func quantileTable(keys int, skew float64, n int) []int64 {
	weight := func(k int) float64 {
		if skew == 0 {
			return 1
		}
		return math.Pow(float64(1+k), -skew)
	}
	total := 0.0
	for k := 0; k < keys; k++ {
		total += weight(k)
	}
	out := make([]int64, n)
	k, below := 0, 0.0 // below = Σ weight of keys < k
	for j := range out {
		u := (float64(j) + 0.5) / float64(n) * total
		for k < keys-1 && below+weight(k) <= u {
			below += weight(k)
			k++
		}
		out[j] = int64(k)
	}
	return out
}

func (s *stream) drawKey(lane, rel int) int64 {
	return s.deal[lane][rel].draw(s.rng)*int64(s.cfg.lanes) + int64(lane)
}

func (s *stream) freshRow(lane, rel int) []int64 {
	if len(s.arena) < 2 {
		s.arena = make([]int64, 8192)
	}
	row := s.arena[:2:2]
	s.arena = s.arena[2:]
	kp := s.cfg.rels[rel].keyPos
	row[kp] = s.drawKey(lane, rel)
	row[1-kp] = s.freshValue()
	return row
}

// count maintains degree and joinSize for one tuple entering (d = 1) or
// leaving (d = −1) rel.
func (s *stream) count(rel int, row []int64, d int32) {
	key := row[s.cfg.rels[rel].keyPos]
	deg := s.degree[key]
	if deg == nil {
		deg = new([2]int32)
		s.degree[key] = deg
	}
	deg[rel] += d
	s.joinSize += int64(d) * int64(deg[1-rel])
}

func (s *stream) mix(rel int, row []int64, mult int64) {
	h := s.sum
	for _, w := range [...]uint64{uint64(rel), uint64(row[0]), uint64(row[1]), uint64(mult)} {
		h = (h ^ w) * fnvPrime
	}
	s.sum = h
}

// insert appends the insertion of one fresh tuple into rel.
func (s *stream) insert(lane, rel int, dst []op) []op {
	row := s.freshRow(lane, rel)
	s.fifo[lane][rel].push(row)
	s.mix(rel, row, 1)
	s.count(rel, row, 1)
	return append(dst, op{rel: rel, row: row, mult: 1})
}

// remove appends the deletion of the oldest sliding tuple of rel in lane.
func (s *stream) remove(lane, rel int, dst []op) []op {
	row := s.fifo[lane][rel].pop()
	s.mix(rel, row, -1)
	s.count(rel, row, -1)
	return append(dst, op{rel: rel, row: row, mult: -1})
}

// slide appends perRel insert+delete pairs for every relation — one
// sliding-window step of 2·perRel·len(rels) ops that leaves N unchanged.
func (s *stream) slide(lane, perRel int, dst []op) []op {
	for i := 0; i < perRel; i++ {
		for r := range s.cfg.rels {
			dst = s.insert(lane, r, dst)
		}
		for r := range s.cfg.rels {
			dst = s.remove(lane, r, dst)
		}
	}
	return dst
}

// drain appends deletions, newest permanent rows first and then oldest
// sliding rows, until each relation keeps at most keep tuples. The end-of-run
// check of a workload whose full result is too large to recompute uses it to
// bring the database down to a size where the whole result can be compared.
func (s *stream) drain(keep int, dst []op) []op {
	for r := range s.cfg.rels {
		live := func() int {
			n := len(s.perm[r])
			for l := range s.fifo {
				n += s.fifo[l][r].len()
			}
			return n
		}
		for live() > keep && len(s.perm[r]) > 0 {
			row := s.perm[r][len(s.perm[r])-1]
			s.perm[r] = s.perm[r][:len(s.perm[r])-1]
			s.mix(r, row, -1)
			s.count(r, row, -1)
			dst = append(dst, op{rel: r, row: row, mult: -1})
		}
		for l := 0; live() > keep; l = (l + 1) % len(s.fifo) {
			if s.fifo[l][r].len() > 0 {
				dst = s.remove(l, r, dst)
			}
		}
	}
	return dst
}
