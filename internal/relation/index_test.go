package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ivmeps/internal/tuple"
)

// abc is the schema of the relations the index tests churn; their indexes are
// keyed on (C, A), out of the schema's order.
func abc() tuple.Schema { return tuple.NewSchema("A", "B", "C") }

func ca() tuple.Schema { return tuple.NewSchema("C", "A") }

// churn applies ops — three values and a signed multiplicity each, clamped so
// no multiplicity goes below zero — to every relation in rs.
func churn(ops [][4]int64, rs ...*Relation) {
	for _, o := range ops {
		tu := tuple.Tuple{o[0], o[1], o[2]}
		m := o[3]
		if have := rs[0].Mult(tu); have+m < 0 {
			m = -have
		}
		for _, r := range rs {
			r.MustAdd(tu, m)
		}
	}
}

// churnOps draws n ops over a few keys, in phases: every tuple of the first
// keys is later deleted and their keys come back after keys new to the
// relation, so freed bucket ids are reused out of first-appearance order.
func churnOps(rng *rand.Rand, n int) [][4]int64 {
	var ops [][4]int64
	row := func(a, c int64, m int64) { ops = append(ops, [4]int64{a, int64(rng.Intn(4)), c, m}) }
	for range n {
		row(int64(rng.Intn(6)), int64(rng.Intn(3)), 1+rng.Int63n(3))
	}
	for a := range int64(3) { // take the tuples with A < 3 out entirely
		for b := range int64(4) {
			for c := range int64(3) {
				ops = append(ops, [4]int64{a, b, c, -1 << 20})
			}
		}
	}
	for range n {
		row(int64(6+rng.Intn(4)), int64(rng.Intn(3)), 1+rng.Int63n(3))
		row(int64(rng.Intn(6)), int64(rng.Intn(3)), 1+rng.Int63n(3))
		if rng.Intn(4) == 0 {
			row(int64(rng.Intn(10)), int64(rng.Intn(3)), -1)
		}
	}
	return ops
}

// sameIndex reports the first way got differs from want through the probes
// and cursors — distinct keys, each key's count, sum and bucket order, by
// tuple — or a bucket sum of either that is not the sum of its entries, or "".
func sameIndex(got, want *Index) string {
	if got.DistinctKeys() != want.DistinctKeys() {
		return fmt.Sprintf("%d distinct keys, want %d", got.DistinctKeys(), want.DistinctKeys())
	}
	if d := sumsHold(got) + sumsHold(want); d != "" {
		return d
	}
	diff := ""
	want.ForEachKey(func(key tuple.Tuple, count int) {
		if got.Count(key) != count {
			diff = fmt.Sprintf("key %v: count %d, want %d", key, got.Count(key), count)
		}
		if got.Sum(key) != want.Sum(key) {
			diff = fmt.Sprintf("key %v: sum %d, want %d", key, got.Sum(key), want.Sum(key))
		}
		g, w := got.First(key), want.First(key)
		for ; g != End && w != End; g, w = got.Next(g), want.Next(w) {
			gt, _ := got.rel.At(g)
			wt, _ := want.rel.At(w)
			if !gt.Equal(wt) {
				diff = fmt.Sprintf("key %v: bucket holds %v where %v is due", key, gt, wt)
			}
		}
		if (g == End) != (w == End) {
			diff = fmt.Sprintf("key %v: bucket length", key)
		}
	})
	return diff
}

// sumsHold reports the first key of ix whose bucket sum is not the sum of
// the multiplicities its cursor visits, or "".
func sumsHold(ix *Index) string {
	diff := ""
	ix.ForEachKey(func(key tuple.Tuple, _ int) {
		var sum int64
		ix.ForEachMatch(key, func(_ tuple.Tuple, m int64) { sum += m })
		if got := ix.Sum(key); got != sum && diff == "" {
			diff = fmt.Sprintf("key %v: bucket sum %d, its entries sum to %d", key, got, sum)
		}
	})
	return diff
}

// insertBuilt reports the first way ix's store differs from the one insert
// of each of its relation's entries, in insertion order, builds on a new
// index — bucket ids, keys, heads, tails, counts and sums, and each entry's
// bucket and links — or """.
func insertBuilt(ix *Index) string {
	rs, got := ix.rel.s, ix.s
	want := &ixStore{keySchema: got.keySchema, proj: got.proj, seed: got.seed, tab: table{arity: len(got.keySchema)}, free: End,
		links: make([]link, len(rs.mults)), of: make([]ID, len(rs.mults))}
	for id := rs.order.head; id != End; id = rs.links[id].next {
		want.insert(rs, id)
	}
	if !slices.Equal(got.buckets, want.buckets) || !slices.Equal(got.tab.vals, want.tab.vals) ||
		!slices.Equal(got.tab.slots, want.tab.slots) || got.tab.count != want.tab.count {
		return "buckets or bucket keys"
	}
	for id := rs.order.head; id != End; id = rs.links[id].next {
		if got.of[id] != want.of[id] || got.links[id] != want.links[id] {
			return fmt.Sprintf("entry %d: bucket %d, links %v; insert gives %d, %v", id, got.of[id], got.links[id], want.of[id], want.links[id])
		}
	}
	return ""
}

// sumsOf is ix.Sums as "key:sum" strings, with the scratch it hands back.
func sumsOf(ix *Index, sums []int64, count bool) ([]string, []int64) {
	var out []string
	sums = ix.Sums(sums, count, func(k tuple.Tuple, m int64) { out = append(out, fmt.Sprint(k, ":", m)) })
	return out, sums
}

// addedSums is the reference of Sums: MustAdd of every entry's projected key,
// at its multiplicity or at 1 when count is set, in insertion order, into an
// empty relation, whose entries it lists.
func addedSums(r *Relation, key tuple.Schema, count bool) []string {
	proj := tuple.MustProjection(r.Schema(), key)
	ref := New("ref", key)
	r.ForEach(func(t tuple.Tuple, m int64) {
		if count {
			m = 1
		}
		ref.MustAdd(proj.Apply(t), m)
	})
	var out []string
	ref.ForEach(func(t tuple.Tuple, m int64) { out = append(out, fmt.Sprint(t, ":", m)) })
	return out
}

// TestEnsureIndexOnChurnedRelation holds an index EnsureIndex builds on a
// churned relation to one maintained through the same history — counts,
// distinct keys, bucket order — and to insert of each entry in insertion
// order, store for store.
func TestEnsureIndexOnChurnedRelation(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc, late := New("R", abc()), New("R", abc())
		incIx := inc.EnsureIndex(ca())
		churn(churnOps(rng, 40+rng.Intn(200)), inc, late)
		lateIx := late.EnsureIndex(ca())
		if d := sameIndex(lateIx, incIx); d != "" {
			t.Fatalf("seed %d: the index built late differs from the maintained one: %s", seed, d)
		}
		if d := insertBuilt(lateIx); d != "" {
			t.Fatalf("seed %d: the index built late differs from insert's: %s", seed, d)
		}
		// It is maintained like any other from then on.
		churn(churnOps(rng, 50), inc, late)
		if d := sameIndex(lateIx, incIx); d != "" {
			t.Fatalf("seed %d: after more churn: %s", seed, d)
		}
	}
	if ix := New("R", abc()).EnsureIndex(ca()); ix.DistinctKeys() != 0 || ix.First(tuple.Tuple{0, 0}) != End {
		t.Fatal("an index built on an empty relation is not empty")
	}
}

// TestIndexSumsMatchAdd holds Sums to MustAdd of the projected entries, over
// an index maintained through churn — whose freed bucket ids are reused, so
// bucket order is not first-appearance order — and one built after it, with
// and without count; the scratch comes back zero, and a repeat allocates
// nothing.
func TestIndexSumsMatchAdd(t *testing.T) {
	reordered := false
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc, late := New("R", abc()), New("R", abc())
		incIx := inc.EnsureIndex(ca())
		churn(churnOps(rng, 40+rng.Intn(200)), inc, late)
		lateIx := late.EnsureIndex(ca())
		var byBucket, byFirst []string
		incIx.ForEachKey(func(k tuple.Tuple, _ int) { byBucket = append(byBucket, fmt.Sprint(k)) })
		incIx.Sums(nil, true, func(k tuple.Tuple, _ int64) { byFirst = append(byFirst, fmt.Sprint(k)) })
		reordered = reordered || !slices.Equal(byFirst, byBucket)
		for _, count := range []bool{false, true} {
			want := addedSums(inc, ca(), count)
			for _, ix := range []*Index{incIx, lateIx} {
				got, sums := sumsOf(ix, nil, count)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, count %v: Sums gives\n%v\nMustAdd\n%v", seed, count, got, want)
				}
				if slices.ContainsFunc(sums, func(m int64) bool { return m != 0 }) {
					t.Fatalf("seed %d: Sums handed back a dirty scratch", seed)
				}
				emit := func(tuple.Tuple, int64) {}
				if a := testing.AllocsPerRun(10, func() { sums = ix.Sums(sums, count, emit) }); a != 0 {
					t.Fatalf("seed %d: a repeated Sums allocates %v times", seed, a)
				}
			}
		}
	}
	if !reordered {
		t.Fatal("no history reused a bucket id out of first-appearance order")
	}
}

// TestPartitionRebuildMatchesAdd holds a rebuilt light part to MustAdd of
// the relation's rows whose key degree is below θ, in its insertion order —
// entries, multiplicities, order and key buckets — over churned relations and
// rebuilds at a rising and a falling θ.
func TestPartitionRebuildMatchesAdd(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := New("R", abc())
		p := NewPartition(r, ca(), "R^CA")
		churn(churnOps(rng, 100+rng.Intn(200)), r)
		for _, theta := range []float64{0.5, 2, 3.5, 100, 1.5} {
			p.Rebuild(theta)
			ref := New("ref", abc())
			refIx := ref.EnsureIndex(ca())
			var key tuple.Tuple
			r.ForEach(func(tu tuple.Tuple, m int64) {
				if key = p.AppendPartKey(key[:0], tu); float64(p.Degree(key)) < theta {
					ref.MustAdd(tu, m)
				}
			})
			if d := sameRelation(p.Light(), ref); d != "" {
				t.Fatalf("seed %d, θ %v: the light part differs from MustAdd's: %s", seed, theta, d)
			}
			if d := sameIndex(p.ltIx, refIx); d != "" {
				t.Fatalf("seed %d, θ %v: the light part's index differs from MustAdd's: %s", seed, theta, d)
			}
		}
	}
}

// FuzzIndexSums holds Sums, each bucket's sum, and the index EnsureIndex
// builds on a relation with a history, to references over random Add/remove
// histories: MustAdd of the projected entries, a maintained index, and insert
// of each entry in insertion order. Three bytes make one op: the tuple's
// values, a signed multiplicity (a delete clamped to what is stored), and
// whether the op comes before or after the late index is built and whether
// the maintained relation is frozen before it, so that the op detaches it —
// the frozen handle's sums must stay those it pinned.
func FuzzIndexSums(f *testing.F) {
	f.Add([]byte{1, 2, 0, 9, 1, 0, 1, 0xfe, 0, 9, 3, 1, 1, 2, 1})
	f.Add([]byte{0, 5, 0, 1, 4, 0, 0, 0x80, 0, 1, 0xff, 0, 8, 1, 0, 0, 2, 1})
	f.Add([]byte{1, 2, 2, 9, 1, 0, 1, 0xfe, 3, 9, 3, 1, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		inc, late := New("R", abc()), New("R", abc())
		incIx := inc.EnsureIndex(ca())
		type op struct {
			o      [4]int64
			freeze bool
		}
		var before, after []op
		for ; len(data) >= 3; data = data[3:] {
			o := op{[4]int64{int64(data[0] & 3), int64(data[0] >> 2 & 1), int64(data[0] >> 3 & 3), int64(int8(data[1]))}, data[2]&2 != 0}
			if data[2]&1 == 0 {
				before = append(before, o)
			} else {
				after = append(after, o)
			}
		}
		var frozen *Relation
		var pinned []string // Sums of the maintained index when frozen pinned it
		checkFrozen := func() {
			if frozen == nil {
				return
			}
			fix := frozen.Index(ca())
			if got, _ := sumsOf(fix, nil, false); !slices.Equal(got, pinned) {
				t.Fatalf("a frozen handle's sums moved: %v, pinned %v", got, pinned)
			}
			if d := sumsHold(fix); d != "" {
				t.Fatalf("the frozen handle's index: %s", d)
			}
		}
		apply := func(ops []op) {
			for _, o := range ops {
				if o.freeze {
					checkFrozen()
					if frozen != nil {
						frozen.Release()
					}
					frozen = inc.FreezeInto(frozen)
					pinned, _ = sumsOf(incIx, nil, false)
				}
				churn([][4]int64{o.o}, inc, late)
			}
		}
		apply(before)
		lateIx := late.EnsureIndex(ca())
		if d := insertBuilt(lateIx); d != "" {
			t.Fatalf("the index built late differs from insert's: %s", d)
		}
		apply(after)
		checkFrozen()
		if d := sameIndex(lateIx, incIx); d != "" {
			t.Fatalf("the index built late differs from the maintained one: %s", d)
		}
		var sums []int64
		for _, count := range []bool{false, true} {
			want := addedSums(inc, ca(), count)
			for _, ix := range []*Index{incIx, lateIx} {
				var got []string
				if got, sums = sumsOf(ix, sums, count); !slices.Equal(got, want) {
					t.Fatalf("count %v: Sums gives %v, MustAdd %v", count, got, want)
				}
			}
		}
	})
}
