package relation

import (
	"math/rand"
	"sync"
	"testing"

	"ivmeps/internal/tuple"
)

// fillOp is one step of an append stream: the row {(A, B) → M}, appended to
// the sealed side and added to the reference; Seal closes the fill after it.
type fillOp struct {
	A, B, M int64
	Seal    bool
}

// runFill plays ops into sealed through Reserve(reserve)/Append/Seal(p) and
// into added through MustAdd. A Reserve of −1 announces the stream's own
// length. With put, the stream's own seals are skipped, and the rows past
// the first FirstChunk + 1 are, if Extend opens them, written out of order
// by p goroutines through Put, while one more runs SizeSlots; opened says
// Extend did.
func runFill(sealed, added *Relation, ops []fillOp, reserve, p int, put bool) (opened bool) {
	if reserve < 0 {
		reserve = len(ops)
	}
	sealed.Reserve(reserve)
	for i, o := range ops {
		if put && i == FirstChunk+1 {
			if first, ok := sealed.Extend(len(ops) - i); ok {
				putRows(sealed, first, ops[i:], p)
				for _, o := range ops[i:] {
					added.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
				}
				sealed.Seal(p)
				return true
			}
		}
		sealed.Append(tuple.Tuple{o.A, o.B}, o.M)
		added.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
		if o.Seal && !put {
			sealed.Seal(p)
		}
	}
	sealed.Seal(p)
	return false
}

// putRows writes ops at the ids from first on, as Extend opened them: p
// goroutines take every p-th row, from the last one back, while one more
// sizes the probe array.
func putRows(r *Relation, first ID, ops []fillOp, p int) {
	var wg sync.WaitGroup
	wg.Add(p + 1)
	go func() {
		defer wg.Done()
		r.SizeSlots()
	}()
	for k := range p {
		go func() {
			defer wg.Done()
			for j := len(ops) - 1 - k; j >= 0; j -= p {
				r.Put(first+ID(j), tuple.Tuple{ops[j].A, ops[j].B}, ops[j].M)
			}
		}()
	}
	wg.Wait()
}

// traceHelpers counts, until the test ends, the seals that placed rows on
// helpers and the rows they deferred to their callers.
func traceHelpers(t *testing.T) (seals, deferred *int) {
	seals, deferred = new(int), new(int)
	traceDeferred = func(rows int) { *seals, *deferred = *seals+1, *deferred+rows }
	t.Cleanup(func() { traceDeferred = nil })
	return seals, deferred
}

// sameRelation reports the first way got differs from want — as seen
// through the cursors, the probes and the index on keys (A): entry order,
// tuples and multiplicities, sizes, and each bucket's count, sum and order,
// and either's bucket sums against its entries — or "".
func sameRelation(got, want *Relation) string {
	if got.Size() != want.Size() {
		return "size"
	}
	g, w := got.First(), want.First()
	for ; w != End; g, w = got.Next(g), want.Next(w) {
		if g == End {
			return "order: too few entries"
		}
		gt, gm := got.At(g)
		wt, wm := want.At(w)
		if !gt.Equal(wt) || gm != wm || got.Mult(wt) != wm {
			return "order, tuples or multiplicities"
		}
	}
	if g != End {
		return "order: too many entries"
	}
	a := tuple.NewSchema("A")
	gix, wix := got.Index(a), want.Index(a)
	if gix == nil || wix == nil {
		return ""
	}
	if gix.DistinctKeys() != wix.DistinctKeys() {
		return "distinct index keys"
	}
	if d := sumsHold(gix) + sumsHold(wix); d != "" {
		return d
	}
	diff := ""
	wix.ForEachKey(func(key tuple.Tuple, count int) {
		if gix.Count(key) != count {
			diff = "index bucket count"
		}
		if gix.Sum(key) != wix.Sum(key) {
			diff = "index bucket sum"
		}
		g, w := gix.First(key), wix.First(key)
		for ; w != End && g != End; g, w = gix.Next(g), wix.Next(w) {
			gt, _ := got.At(g)
			wt, _ := want.At(w)
			if !gt.Equal(wt) {
				diff = "index bucket order"
			}
		}
		if g != w {
			diff = "index bucket length"
		}
	})
	return diff
}

// freezer holds a fuzzer's frozen handle on the relation it seals and a copy
// of the reference at the time, indexed like it, which the handle must go on
// reading however the relation changes after.
type freezer struct {
	frozen, pinned *Relation
}

// freeze releases the handle held, if any, and pins r's contents, which equal
// ref's.
func (fz *freezer) freeze(r, ref *Relation) {
	if fz.frozen != nil {
		fz.frozen.Release()
	}
	fz.frozen = r.FreezeInto(fz.frozen)
	fz.pinned = ref.Clone()
	fz.pinned.EnsureIndex(tuple.NewSchema("A"))
}

// check reports the first way the frozen handle differs from what it pinned,
// or "".
func (fz *freezer) check() string {
	if fz.frozen == nil {
		return ""
	}
	if d := sameRelation(fz.frozen, fz.pinned); d != "" {
		return "the frozen handle differs from what it pinned: " + d
	}
	return ""
}

// checkTable reports the first stored entry the probe array cannot find by
// value from its home slot, or "".
func checkTable(r *Relation) string {
	used := 0
	for _, s := range r.s.tab.slots {
		if s != 0 {
			used++
		}
	}
	if used != r.Size() {
		return "slot count"
	}
	for id := r.First(); id != End; id = r.Next(id) {
		tu, _ := r.At(id)
		if _, got, ok := r.s.tab.find(tuple.Hash(r.s.seed, tu), tu); !ok || got != id {
			return "entry not found from its home slot"
		}
	}
	return ""
}

// randomStream draws n appends over a domain of keys keys — so rows repeat —
// whose multiplicities never go below zero in the reference: unless neg is
// false, now and then a row takes back part or all of its key's
// multiplicity, and a key taken to zero may come back later. Seal points fall
// at random.
func randomStream(rng *rand.Rand, n, keys int, neg bool, have map[[2]int64]int64) []fillOp {
	ops := make([]fillOp, n)
	for i := range ops {
		k := [2]int64{int64(rng.Intn(keys)), int64(rng.Intn(3))}
		m := int64(1 + rng.Intn(3))
		if cur := have[k]; neg && cur > 0 && rng.Intn(4) == 0 {
			m = -cur
			if rng.Intn(2) == 0 {
				m = -1 - rng.Int63n(cur)
			}
		}
		have[k] += m
		ops[i] = fillOp{A: k[0], B: k[1], M: m, Seal: rng.Intn(50) == 0}
	}
	return ops
}

// TestSealMatchesAdd is the model test of the bulk fill: random append
// streams — duplicates, rows netting to zero and coming back, fills onto a
// relation that churned under Add, with and without a count, chunked by full
// columns and by explicit seals, sealed on p ∈ {1, 2, 3, 4} helpers — leave a
// sealed relation equal to one built by MustAdd: the same entries in the same
// order, the same multiplicities and sizes, and the same buckets in the same
// order on an index made before the fills. Half the rounds append no negative
// multiplicity, so their seals on p > 1 place rows on the helpers, and some
// of those rows are deferred at a window's edge. Half put the rows past the
// first chunk through Extend and Put (runFill), over keys too many to
// repeat often, so that the first chunk may not merge and Extend opens them.
func TestSealMatchesAdd(t *testing.T) {
	seals, deferred := traceHelpers(t)
	opened := 0
	rng := rand.New(rand.NewSource(30))
	for round := 0; round < 200; round++ {
		p, neg, put := 1+round%4, round/4%2 == 0, round/8%2 == 0
		sealed, added := New("R", ab()), New("R", ab())
		sealed.EnsureIndex(tuple.NewSchema("A"))
		added.EnsureIndex(tuple.NewSchema("A"))
		have := map[[2]int64]int64{}
		keys := 1 + rng.Intn(300)
		if put {
			keys *= 1000
		}
		for fill := 0; fill < 4; fill++ {
			for _, o := range randomStream(rng, rng.Intn(40), keys, neg, have) {
				sealed.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
				added.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
			}
			ops := randomStream(rng, rng.Intn(2000), keys, neg, have)
			reserve := []int{-1, 0, rng.Intn(4000)}[rng.Intn(3)]
			if runFill(sealed, added, ops, reserve, p, put) {
				opened++
			}
			if d := sameRelation(sealed, added); d != "" {
				t.Fatalf("round %d fill %d (%d rows over %d keys, Reserve(%d), Seal(%d), Put %v): the sealed relation differs from MustAdd's: %s", round, fill, len(ops), keys, reserve, p, put, d)
			}
			if d := checkTable(sealed); d != "" {
				t.Fatalf("round %d fill %d: %s", round, fill, d)
			}
		}
	}
	t.Logf("%d seals placed rows on helpers, deferring %d rows; Extend opened %d fills", *seals, *deferred, opened)
	if *seals == 0 || *deferred == 0 || opened == 0 {
		t.Errorf("%d seals placed rows on helpers, deferring %d rows; Extend opened %d fills: want some of each", *seals, *deferred, opened)
	}
}

// A seal of a table past 2^15 slots runs in several partitions; rows whose
// home is the last slot of a partition, or of the whole array, form probe
// clusters that cross into the next partition's window and wrap to the
// array's start. Crafted rows of both kinds — some repeated, and, in the
// streams with a negative multiplicity, one netting to zero inside its
// cluster — seal on p ∈ {1, 2, 3, 4} helpers to what MustAdd builds, appended
// or put past their first chunk (runFill), and the clusters do cross. A
// positive stream's seal on helpers defers the rows whose probes reach a
// window's edge — the array's end at least.
func TestSealClustersCrossPartitions(t *testing.T) {
	const rows = 30000 // a table of 2^16 slots: four partitions of 2^14
	const shift = 64 - 16
	edges := []uint64{1<<partBits - 1, 1<<16 - 1}
	seals, deferred := traceHelpers(t)
	for i := range 16 {
		neg, put, p := i/8 == 1, i/4%2 == 1, 1+i%4
		sealed, added := New("R", ab()), New("R", ab())
		sealed.EnsureIndex(tuple.NewSchema("A"))
		added.EnsureIndex(tuple.NewSchema("A"))
		var crafted [][2]int64
		for _, home := range edges {
			found := 0
			for b := int64(1 << 40); found < 6; b++ {
				if tuple.Hash(sealed.s.seed, tuple.Tuple{7, b})>>shift == home {
					crafted = append(crafted, [2]int64{7, b})
					found++
				}
			}
		}
		rng := rand.New(rand.NewSource(31))
		var ops []fillOp
		for i := 0; i < rows; i++ {
			ops = append(ops, fillOp{A: rng.Int63n(rows), B: int64(i), M: 1})
			if i%(rows/len(crafted)) == 0 {
				c := crafted[i/(rows/len(crafted))%len(crafted)]
				ops = append(ops, fillOp{A: c[0], B: c[1], M: 2})
			}
		}
		for _, c := range crafted[:3] {
			ops = append(ops, fillOp{A: c[0], B: c[1], M: 1}) // repeats merge
		}
		if neg {
			c := crafted[len(crafted)-1]
			ops = append(ops, fillOp{A: c[0], B: c[1], M: -2}) // nets to zero in the wrapping cluster
		}
		*seals, *deferred = 0, 0
		if opened := runFill(sealed, added, ops, -1, p, put); opened != put {
			t.Fatalf("Seal(%d), Put %v: Extend opened the rows past the first chunk: %v", p, put, opened)
		}

		if got := len(sealed.s.tab.slots); got != 1<<16 {
			t.Fatalf("Seal(%d): the seal built %d slots, want 2^16", p, got)
		}
		if d := sameRelation(sealed, added); d != "" {
			t.Fatalf("Seal(%d), negative rows %v, Put %v: the sealed relation differs from MustAdd's: %s", p, neg, put, d)
		}
		if d := checkTable(sealed); d != "" {
			t.Fatalf("Seal(%d): %s", p, d)
		}
		for _, home := range edges {
			next, crossed := (home+1)&(1<<16-1), false
			for _, s := range sealed.s.tab.slots[next : next+32] {
				crossed = crossed || s != 0 && s>>shift == home
			}
			if !crossed {
				t.Errorf("Seal(%d): no row homed at slot %d sits past it: the cluster at the edge did not cross", p, home)
			}
		}
		if helped := p > 1 && !neg; helped != (*seals == 1) || helped && *deferred < 5 {
			t.Errorf("Seal(%d), negative rows %v: %d seals on helpers deferred %d rows; want one deferring five of the six crafted rows homed at the array's end at least, when p > 1 and no row is negative", p, neg, *seals, *deferred)
		}
	}
}

// A fill onto a relation pinned by Freeze detaches it: the frozen handle
// keeps the contents it pinned, and the live one seals to what MustAdd gives.
// Appending to, reserving on or sealing a frozen handle panics, and so does
// Add during an open fill.
func TestSealPinnedAndFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	sealed, added := New("R", ab()), New("R", ab())
	sealed.EnsureIndex(tuple.NewSchema("A"))
	added.EnsureIndex(tuple.NewSchema("A"))
	have := map[[2]int64]int64{}
	runFill(sealed, added, randomStream(rng, 500, 100, true, have), -1, 1, false)
	pinned := added.Clone()
	pinned.EnsureIndex(tuple.NewSchema("A"))

	f := sealed.FreezeInto(nil)
	defer f.Release()
	runFill(sealed, added, randomStream(rng, 3000, 100, true, have), -1, 1, false)
	if d := sameRelation(sealed, added); d != "" {
		t.Fatalf("the fill of a pinned relation differs from MustAdd's: %s", d)
	}
	if d := sameRelation(f, pinned); d != "" {
		t.Fatalf("the frozen handle lost the contents it pinned: %s", d)
	}

	for _, c := range []struct {
		name string
		fn   func(fresh *Relation)
	}{
		{"Append on a frozen handle", func(*Relation) { f.Append(tuple.Tuple{1, 1}, 1) }},
		{"Reserve on a frozen handle", func(*Relation) { f.Reserve(1) }},
		{"Seal on a frozen handle", func(*Relation) { f.Seal(1) }},
		{"Add during an open fill", func(r *Relation) {
			r.Append(tuple.Tuple{1, 1}, 1)
			r.MustAdd(tuple.Tuple{1, 1}, 1)
		}},
		{"a row below zero", func(r *Relation) {
			r.Append(tuple.Tuple{1, 1}, 1)
			r.Append(tuple.Tuple{1, 1}, -2)
			r.Seal(1)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn(New("R", ab()))
		}()
	}
}

// Growth of a fill: one of n distinct rows grows its columns twice — for
// its first 512 rows, then to the count — and ends with columns of exactly n
// rows and the probe array doubling reaches; one whose 1 M rows collapse onto
// 100 or 400 stays within 8× of what it stores in its columns and of
// doubling's probe array; and repeating a fill after Clear — a major
// rebalance — allocates nothing, whether its rows are distinct, collapse,
// merge early, in part or late, or come without a count.
func TestFillGrowth(t *testing.T) {
	const n = 1_000_000
	distinct := func(i int) fillOp { return fillOp{A: int64(i), B: int64(i) * 7, M: 1} }
	stream := func(rows int, row func(int) fillOp) []fillOp {
		ops := make([]fillOp, rows)
		for i := range ops {
			ops[i] = row(i)
		}
		return ops
	}

	doubled, sealed := New("R", ab()), New("R", ab())
	sealed.Reserve(n)
	grows, rows := 0, cap(sealed.s.mults)
	for i := range n {
		o := distinct(i)
		sealed.Append(tuple.Tuple{o.A, o.B}, o.M)
		doubled.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
		if c := cap(sealed.s.mults); c != rows {
			grows, rows = grows+1, c
		}
	}
	sealed.Seal(1)
	if grows != 1 || rows != n {
		t.Errorf("a fill of %d distinct rows grew its columns %d times after Reserve, to %d rows; want once, to %d", n, grows, rows, n)
	}
	if got, want := len(sealed.s.tab.slots), len(doubled.s.tab.slots); got != want {
		t.Errorf("a fill of %d rows ends at %d slots, doubling at %d", n, got, want)
	}
	if rows, vals := cap(sealed.s.mults), cap(sealed.s.tab.vals); rows != n || vals != 2*n {
		t.Errorf("a fill of %d rows ends with columns of %d rows and %d values, want exactly %d and %d", n, rows, vals, n, 2*n)
	}

	for _, keys := range []int{100, 400} {
		small, collapsed := New("R", ab()), New("R", ab())
		runFill(collapsed, small, stream(n, func(i int) fillOp { return distinct(i % keys) }), -1, 1, false)
		if got, limit := len(collapsed.s.tab.slots), 8*len(small.s.tab.slots); got > limit {
			t.Errorf("a fill of %d rows that stored %d ends at %d slots, want at most %d", n, keys, got, limit)
		}
		if rows := cap(collapsed.s.mults); rows > 8*keys {
			t.Errorf("a fill of %d rows that stored %d ends with columns of %d rows, want at most %d", n, keys, rows, 8*keys)
		}
	}

	// A fill that announces no count — internal/core's Load — seals its
	// first 512 rows as its columns fill and places the rest at Seal, ending
	// with the columns and probe array MustAdd's doubling gives; one whose
	// early rows merge goes on sealing, and stays within the same 8× bound.
	const m = 100_000
	uncounted, added := New("R", ab()), New("R", ab())
	for i := range m {
		o := distinct(i)
		uncounted.Append(tuple.Tuple{o.A, o.B}, o.M)
		added.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
	}
	if placed := uncounted.s.tab.count; placed != FirstChunk {
		t.Errorf("an uncounted fill of %d distinct rows placed %d of them before Seal, want its first %d", m, placed, FirstChunk)
	}
	uncounted.Seal(1)
	if got, want := [2]int{cap(uncounted.s.mults), len(uncounted.s.tab.slots)}, [2]int{cap(added.s.mults), len(added.s.tab.slots)}; got != want {
		t.Errorf("an uncounted fill of %d distinct rows ends with columns of %d rows and %d slots, MustAdd with %d and %d", m, got[0], got[1], want[0], want[1])
	}
	for _, keys := range []int{100, 400} {
		r := New("R", ab())
		for i := range m {
			o := distinct(i % keys)
			r.Append(tuple.Tuple{o.A, o.B}, o.M)
		}
		r.Seal(1)
		if rows := cap(r.s.mults); rows > 8*keys {
			t.Errorf("an uncounted fill of %d rows that stored %d ends with columns of %d rows, want at most %d", m, keys, rows, 8*keys)
		}
	}

	for _, c := range []struct {
		name    string
		ops     []fillOp
		reserve int
	}{
		{"distinct", stream(20000, distinct), -1},
		{"collapsing", stream(20000, func(i int) fillOp { return distinct(i % 100) }), -1},
		{"early-merging", stream(5000, func(i int) fillOp { // outgrows its columns: the repeat needs the room Seal leaves
			switch {
			case i < 800:
				return distinct(0)
			case i < 4400:
				return distinct(i - 800)
			case i < 4700:
				return distinct(i * 7919 % 3600)
			}
			return distinct(i - 1100)
		}), -1},
		{"half-merging", stream(20000, func(i int) fillOp { return distinct(i * 7919 % 10000) }), -1},
		{"late-merging", stream(20000, func(i int) fillOp { return distinct(max(i-15000, 0) % 3000) }), -1},
		{"uncounted", stream(20000, func(i int) fillOp { return distinct(i * 7919 % 10000) }), 0},
	} {
		r, added := New("R", ab()), New("R", ab())
		r.EnsureIndex(tuple.NewSchema("A"))
		added.EnsureIndex(tuple.NewSchema("A"))
		for _, o := range c.ops {
			added.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
		}
		reserve := c.reserve
		if reserve < 0 {
			reserve = len(c.ops)
		}
		refill := func() {
			r.Clear()
			r.Reserve(reserve)
			for _, o := range c.ops {
				r.Append(tuple.Tuple{o.A, o.B}, o.M)
			}
			r.Seal(1)
		}
		// The warm-up run is the first fill; the two measured ones repeat it.
		if allocs := testing.AllocsPerRun(2, refill); allocs != 0 {
			t.Errorf("%s: a repeated fill allocates %v times, want 0", c.name, allocs)
		}
		if d := sameRelation(r, added); d != "" {
			t.Errorf("%s: the repeated fill differs from MustAdd's: %s", c.name, d)
		}
	}
}

// FuzzSeal decodes arbitrary bytes as an append stream — three bytes a row:
// its key and whether to freeze the relation first, so that the row detaches
// it, its multiplicity (a negative one clamped to what the key holds), and
// whether to Seal, Add instead of Append, or Reserve before it — and checks
// the sealed relation, its index's bucket sums included, against MustAdd's
// after every seal, and a frozen handle against what it pinned.
func FuzzSeal(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 3, 1, 1, 0xff, 0})
	f.Add([]byte{0, 5, 2, 9, 1, 4, 9, 0x80, 1, 9, 1, 0})
	f.Add([]byte{0x21, 2, 1, 1, 3, 0, 0x21, 0xff, 0, 9, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed, added := New("R", ab()), New("R", ab())
		sealed.EnsureIndex(tuple.NewSchema("A"))
		added.EnsureIndex(tuple.NewSchema("A"))
		have := map[[2]int64]int64{}
		var fz freezer
		check := func() {
			sealed.Seal(1)
			if d := sameRelation(sealed, added); d != "" {
				t.Fatalf("the sealed relation differs from MustAdd's: %s", d)
			}
			if d := checkTable(sealed); d != "" {
				t.Fatal(d)
			}
			if d := fz.check(); d != "" {
				t.Fatal(d)
			}
		}
		for ; len(data) >= 3; data = data[3:] {
			if data[0]&0x20 != 0 {
				check()
				fz.freeze(sealed, added)
			}
			k := [2]int64{int64(data[0] & 7), int64(data[0] >> 3 & 3)}
			m, ctl := int64(int8(data[1])), data[2]
			if m < 0 {
				m = max(m, -have[k])
				if m == 0 {
					m = 1
				}
			}
			have[k] += m
			tu := tuple.Tuple{k[0], k[1]}
			if ctl&4 != 0 {
				sealed.Reserve(int(ctl >> 3))
			}
			if ctl&2 != 0 {
				check()
				sealed.MustAdd(tu, m)
			} else {
				sealed.Append(tu, m)
			}
			added.MustAdd(tu, m)
			if ctl&1 != 0 {
				check()
			}
		}
		check()
	})
}

// Clear on a store pinned by a snapshot installs a store whose entry and
// index tables already have the retired store's sizes, so the refill that
// follows — a major rebalance under a held snapshot — grows none of them, and
// the frozen handle keeps reading what it pinned.
func TestPinnedClearSizesTheRefill(t *testing.T) {
	const n = 5000
	r := New("R", tuple.NewSchema("A", "B"))
	ix := r.EnsureIndex(tuple.NewSchema("A"))
	fill := func() {
		for i := int64(0); i < n; i++ {
			r.MustAdd(tuple.Tuple{i % 1000, i}, 1+i%3)
		}
	}
	fill()
	slots, ixSlots := len(r.s.tab.slots), len(ix.s.tab.slots)

	f := r.FreezeInto(nil)
	defer f.Release()
	r.Clear()
	if r.Size() != 0 || f.Size() != n {
		t.Fatalf("after Clear: live size %d (want 0), frozen size %d (want %d)", r.Size(), f.Size(), n)
	}
	if r.s == f.s {
		t.Fatal("Clear of a pinned store did not detach it")
	}
	if got, gotIx := len(r.s.tab.slots), len(ix.s.tab.slots); got != slots || gotIx != ixSlots {
		t.Errorf("the store installed by Clear has %d entry and %d index slots, the retired one %d and %d", got, gotIx, slots, ixSlots)
	}
	fill()
	if got, gotIx := len(r.s.tab.slots), len(ix.s.tab.slots); got != slots || gotIx != ixSlots {
		t.Errorf("the refill grew the tables to %d entry and %d index slots from %d and %d", got, gotIx, slots, ixSlots)
	}
	r.MustAdd(tuple.Tuple{0, 0}, 10)
	if f.Size() != n || f.Mult(tuple.Tuple{0, 0}) != 1 || f.EnsureIndex(tuple.NewSchema("A")).Count(tuple.Tuple{0}) != n/1000 {
		t.Errorf("the frozen handle no longer reads the contents it pinned: %d rows", f.Size())
	}
}

// deltaRow is one row of an aggregated delta.
type deltaRow struct {
	t tuple.Tuple
	m int64
}

// aggregate sums ops by tuple, in the order the tuples first appear — as
// internal/core's delta does — keeping the tuples that net to zero. A row of
// multiplicity zero is no row: Append drops it.
func aggregate(ops []fillOp) []deltaRow {
	var rows []deltaRow
	at := map[[2]int64]int{}
	for _, o := range ops {
		if o.M == 0 {
			continue
		}
		k := [2]int64{o.A, o.B}
		if i, ok := at[k]; ok {
			rows[i].m += o.M
			continue
		}
		at[k] = len(rows)
		rows = append(rows, deltaRow{tuple.Tuple{o.A, o.B}, o.M})
	}
	return rows
}

// runDelta appends ops to sealed as one delta fill and adds their aggregate's
// rows to added by MustAdd, in order. It reports the first way the entry ids,
// in insertion order, or the rows SealDelta emitted and counted differ from
// MustAdd's ids and the aggregate's non-zero rows, or "". A quiet seal emits
// nothing, and only its count is checked.
func runDelta(sealed, added *Relation, ops []fillOp, quiet bool) string {
	sealed.OpenDelta()
	for _, o := range ops {
		sealed.Append(tuple.Tuple{o.A, o.B}, o.M)
	}
	var got []deltaRow
	emit := func(t tuple.Tuple, m int64) { got = append(got, deltaRow{t.Clone(), m}) }
	if quiet {
		emit = nil
	}
	n := sealed.SealDelta(emit)
	var want []deltaRow
	for _, w := range aggregate(ops) {
		if w.m != 0 {
			added.MustAdd(w.t, w.m)
			want = append(want, w)
		}
	}
	for g, w := sealed.First(), added.First(); w != End; g, w = sealed.Next(g), added.Next(w) {
		if g != w {
			return "entry ids"
		}
	}
	if n != len(want) {
		return "returned row count"
	}
	if quiet {
		return ""
	}
	if len(got) != len(want) {
		return "emitted row count"
	}
	for i := range want {
		if !got[i].t.Equal(want[i].t) || got[i].m != want[i].m {
			return "emitted rows or their order"
		}
	}
	return ""
}

// TestSealDeltaMatchesAggregatedAdd is the model test of the delta fill:
// random deltas — mixed signs, rows that cancel inside the delta, removals
// of stored rows, tuples that leave and come back — onto a relation with an
// index that churned under Add between them leave it equal to MustAdd of
// each delta's aggregate in first-appearance order: the same entries in the
// same order, the same buckets in the same order, the same multiplicities
// and size; and SealDelta emits exactly the aggregate's non-zero rows, in
// order, or, given no emit, counts them.
func TestSealDeltaMatchesAggregatedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for round := 0; round < 200; round++ {
		sealed, added := New("R", ab()), New("R", ab())
		sealed.EnsureIndex(tuple.NewSchema("A"))
		added.EnsureIndex(tuple.NewSchema("A"))
		have := map[[2]int64]int64{}
		keys := 1 + rng.Intn(300)
		for fill := 0; fill < 6; fill++ {
			for _, o := range randomStream(rng, rng.Intn(60), keys, true, have) {
				sealed.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
				added.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
			}
			ops := randomStream(rng, rng.Intn(2000), keys, true, have)
			if d := runDelta(sealed, added, ops, fill == 5); d != "" {
				t.Fatalf("round %d fill %d (%d rows over %d keys): %s", round, fill, len(ops), keys, d)
			}
			if d := sameRelation(sealed, added); d != "" {
				t.Fatalf("round %d fill %d (%d rows over %d keys): the sealed relation differs from MustAdd's: %s", round, fill, len(ops), keys, d)
			}
			if d := checkTable(sealed); d != "" {
				t.Fatalf("round %d fill %d: %s", round, fill, d)
			}
			if sealed.s.fill != (fillState{}) {
				t.Fatalf("round %d fill %d: the fill is still open", round, fill)
			}
		}
	}

	// A relation past 2^15 slots seals in partitions; deltas that remove a
	// third of its rows, add as many, repeat rows and cancel some make
	// deletions shift accumulators' slots back before settle reaches them.
	// Its table grows only as new tuples fill it, here to what MustAdd's
	// does.
	sealed, added := New("R", ab()), New("R", ab())
	sealed.EnsureIndex(tuple.NewSchema("A"))
	added.EnsureIndex(tuple.NewSchema("A"))
	have := map[[2]int64]int64{}
	var stored [][2]int64 // have's keys, in a fixed order
	for i := int64(0); i < 30000; i++ {
		sealed.MustAdd(tuple.Tuple{i % 5000, i}, 1)
		added.MustAdd(tuple.Tuple{i % 5000, i}, 1)
		have[[2]int64{i % 5000, i}] = 1
		stored = append(stored, [2]int64{i % 5000, i})
	}
	for fill := 0; fill < 3; fill++ {
		var ops []fillOp
		for _, k := range stored {
			switch m := have[k]; {
			case m == 0:
			case rng.Intn(3) == 0:
				ops = append(ops, fillOp{A: k[0], B: k[1], M: -m})
				have[k] = 0
			case rng.Intn(2) == 0:
				ops = append(ops, fillOp{A: k[0], B: k[1], M: 2}, fillOp{A: k[0], B: k[1], M: -1})
				have[k] += 1
			}
		}
		for i := 0; i < 10000; i++ {
			k := [2]int64{rng.Int63n(5000), 30000 + rng.Int63n(20000)}
			if have[k] == 0 && rng.Intn(4) == 0 {
				ops = append(ops, fillOp{A: k[0], B: k[1], M: 1}, fillOp{A: k[0], B: k[1], M: -1})
				continue
			}
			ops = append(ops, fillOp{A: k[0], B: k[1], M: 1})
			if have[k]++; have[k] == 1 {
				stored = append(stored, k)
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		if d := runDelta(sealed, added, ops, false); d != "" {
			t.Fatalf("large fill %d: %s", fill, d)
		}
		if d := sameRelation(sealed, added); d != "" {
			t.Fatalf("large fill %d: the sealed relation differs from MustAdd's: %s", fill, d)
		}
		if d := checkTable(sealed); d != "" {
			t.Fatalf("large fill %d: %s", fill, d)
		}
		if got, want := len(sealed.s.tab.slots), len(added.s.tab.slots); got != want {
			t.Fatalf("large fill %d: the sealed relation has %d slots, MustAdd's %d", fill, got, want)
		}
	}
	slots := len(sealed.s.tab.slots)
	if slots < 1<<16 {
		t.Fatalf("the large fills ran on %d slots, want at least 2^16", slots)
	}
	// The table grows only as new tuples fill it: a delta that takes every
	// row out grows nothing.
	var ops []fillOp
	for _, k := range stored {
		if m := have[k]; m > 0 {
			ops = append(ops, fillOp{A: k[0], B: k[1], M: -m})
			have[k] = 0
		}
	}
	if d := runDelta(sealed, added, ops, false); d != "" {
		t.Fatalf("emptying fill: %s", d)
	}
	if sealed.Size() != 0 || len(sealed.s.tab.slots) != slots {
		t.Fatalf("the emptying fill left %d rows in %d slots, want 0 in %d", sealed.Size(), len(sealed.s.tab.slots), slots)
	}
}

// A delta fill onto a relation pinned by Freeze detaches it: the frozen
// handle keeps the contents it pinned, and the live one matches MustAdd of
// the aggregate. A delta that takes a row below zero panics — whether it is
// stored or new — and so do a Seal of a delta fill and a SealDelta of none.
func TestSealDeltaPinnedAndMisuse(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	sealed, added := New("R", ab()), New("R", ab())
	sealed.EnsureIndex(tuple.NewSchema("A"))
	added.EnsureIndex(tuple.NewSchema("A"))
	have := map[[2]int64]int64{}
	for _, o := range randomStream(rng, 500, 100, true, have) {
		sealed.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
		added.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
	}
	pinned := added.Clone()
	pinned.EnsureIndex(tuple.NewSchema("A"))

	f := sealed.FreezeInto(nil)
	defer f.Release()
	if d := runDelta(sealed, added, randomStream(rng, 3000, 100, true, have), false); d != "" {
		t.Fatal(d)
	}
	if sealed.s == f.s {
		t.Fatal("the delta fill of a pinned relation did not detach it")
	}
	if d := sameRelation(sealed, added); d != "" {
		t.Fatalf("the delta fill of a pinned relation differs from MustAdd's: %s", d)
	}
	if d := sameRelation(f, pinned); d != "" {
		t.Fatalf("the frozen handle lost the contents it pinned: %s", d)
	}

	for _, c := range []struct {
		name string
		fn   func(r *Relation)
	}{
		{"a stored row below zero", func(r *Relation) {
			r.MustAdd(tuple.Tuple{1, 1}, 1)
			r.OpenDelta()
			r.Append(tuple.Tuple{1, 1}, -3)
			r.Append(tuple.Tuple{1, 1}, 1)
			r.SealDelta(func(tuple.Tuple, int64) {})
		}},
		{"a new row below zero", func(r *Relation) {
			r.OpenDelta()
			r.Append(tuple.Tuple{1, 1}, 1)
			r.Append(tuple.Tuple{1, 1}, -2)
			r.SealDelta(func(tuple.Tuple, int64) {})
		}},
		{"Seal of a delta fill", func(r *Relation) {
			r.OpenDelta()
			r.Append(tuple.Tuple{1, 1}, 1)
			r.Seal(1)
		}},
		{"SealDelta of a row fill", func(r *Relation) {
			r.Append(tuple.Tuple{1, 1}, 1)
			r.SealDelta(func(tuple.Tuple, int64) {})
		}},
		{"OpenDelta on a frozen handle", func(*Relation) { f.OpenDelta() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn(New("R", ab()))
		}()
	}
}

// FuzzSealDelta decodes arbitrary bytes as deltas — three bytes a row: its
// key and whether to freeze the relation before the next delta, so that the
// delta detaches it, its multiplicity (a negative one clamped so that the
// running sum of the key stays at or above zero), and whether to seal the
// delta after it or Add the row between deltas instead — and checks every
// seal against MustAdd of the delta's aggregate: the relation, its index with
// its bucket sums, and the emitted rows; and a frozen handle against what it
// pinned.
func FuzzSealDelta(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 3, 0, 9, 1, 1, 1, 0xfb, 1})
	f.Add([]byte{0, 5, 2, 9, 1, 0, 0, 0xfb, 0, 9, 0xff, 1, 9, 1, 0})
	f.Add([]byte{1, 2, 1, 0x21, 3, 0, 9, 1, 1, 0x21, 0xfb, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed, added := New("R", ab()), New("R", ab())
		sealed.EnsureIndex(tuple.NewSchema("A"))
		added.EnsureIndex(tuple.NewSchema("A"))
		have := map[[2]int64]int64{}
		var ops []fillOp
		var fz freezer
		check := func() {
			if d := runDelta(sealed, added, ops, false); d != "" {
				t.Fatal(d)
			}
			ops = ops[:0]
			if d := sameRelation(sealed, added); d != "" {
				t.Fatalf("the sealed relation differs from MustAdd's: %s", d)
			}
			if d := checkTable(sealed); d != "" {
				t.Fatal(d)
			}
			if d := fz.check(); d != "" {
				t.Fatal(d)
			}
		}
		for ; len(data) >= 3; data = data[3:] {
			if data[0]&0x20 != 0 && len(ops) == 0 {
				fz.freeze(sealed, added)
			}
			k := [2]int64{int64(data[0] & 7), int64(data[0] >> 3 & 3)}
			m, ctl := int64(int8(data[1])), data[2]
			if m < 0 {
				m = max(m, -have[k])
				if m == 0 {
					m = 1
				}
			}
			have[k] += m
			if ctl&2 != 0 {
				check()
				sealed.MustAdd(tuple.Tuple{k[0], k[1]}, m)
				added.MustAdd(tuple.Tuple{k[0], k[1]}, m)
			} else {
				ops = append(ops, fillOp{A: k[0], B: k[1], M: m})
			}
			if ctl&1 != 0 {
				check()
			}
		}
		check()
	})
}
