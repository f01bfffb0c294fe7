package relation

import (
	"math/rand"
	"testing"

	"ivmeps/internal/tuple"
)

// fillOp is one step of an append stream: the row {(A, B) → M}, appended to
// the sealed side and added to the reference; Seal closes the fill after it.
type fillOp struct {
	A, B, M int64
	Seal    bool
}

// runFill plays ops into sealed through Reserve(reserve)/Append/Seal and into
// added through MustAdd. A Reserve of −1 announces the stream's own length.
func runFill(sealed, added *Relation, ops []fillOp, reserve int) {
	if reserve < 0 {
		reserve = len(ops)
	}
	sealed.Reserve(reserve)
	for _, o := range ops {
		sealed.Append(tuple.Tuple{o.A, o.B}, o.M)
		added.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
		if o.Seal {
			sealed.Seal()
		}
	}
	sealed.Seal()
}

// sameRelation reports the first way got differs from want — as seen
// through the cursors, the probes and the index on keys (A): entry order,
// tuples and multiplicities, sizes, and each bucket's count and order — or "".
func sameRelation(got, want *Relation) string {
	if got.Size() != want.Size() || got.TotalMultiplicity() != want.TotalMultiplicity() {
		return "size or total multiplicity"
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
	diff := ""
	wix.ForEachKey(func(key tuple.Tuple, count int) {
		if gix.Count(key) != count {
			diff = "index bucket count"
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
		if _, got, ok := r.s.tab.find(r.HashOf(tu), tu); !ok || got != id {
			return "entry not found from its home slot"
		}
	}
	return ""
}

// randomStream draws n appends over a domain of keys keys — so rows repeat —
// whose multiplicities never go below zero in the reference: now and then a
// row takes back part or all of its key's multiplicity, and a key taken to
// zero may come back later. Seal points fall at random.
func randomStream(rng *rand.Rand, n, keys int, have map[[2]int64]int64) []fillOp {
	ops := make([]fillOp, n)
	for i := range ops {
		k := [2]int64{int64(rng.Intn(keys)), int64(rng.Intn(3))}
		m := int64(1 + rng.Intn(3))
		if cur := have[k]; cur > 0 && rng.Intn(4) == 0 {
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
// columns and by explicit seals — leave a sealed relation equal to one built
// by MustAdd: the same entries in the same order, the same multiplicities and
// sizes, and the same buckets in the same order on an index made before the
// fills.
func TestSealMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for round := 0; round < 200; round++ {
		sealed, added := New("R", ab()), New("R", ab())
		sealed.EnsureIndex(tuple.NewSchema("A"))
		added.EnsureIndex(tuple.NewSchema("A"))
		have := map[[2]int64]int64{}
		keys := 1 + rng.Intn(300)
		for fill := 0; fill < 4; fill++ {
			for _, o := range randomStream(rng, rng.Intn(40), keys, have) {
				sealed.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
				added.MustAdd(tuple.Tuple{o.A, o.B}, o.M)
			}
			ops := randomStream(rng, rng.Intn(2000), keys, have)
			reserve := []int{-1, 0, rng.Intn(4000)}[rng.Intn(3)]
			runFill(sealed, added, ops, reserve)
			if d := sameRelation(sealed, added); d != "" {
				t.Fatalf("round %d fill %d (%d rows over %d keys, Reserve(%d)): the sealed relation differs from MustAdd's: %s", round, fill, len(ops), keys, reserve, d)
			}
			if d := checkTable(sealed); d != "" {
				t.Fatalf("round %d fill %d: %s", round, fill, d)
			}
		}
	}
}

// A seal of a table past 2^15 slots runs in several partitions; rows whose
// home is the last slot of a partition, or of the whole array, form probe
// clusters that cross into the next partition's window and wrap to the
// array's start. Crafted rows of both kinds — some repeated, one netting to
// zero inside its cluster — seal to what MustAdd builds, and the clusters do
// cross.
func TestSealClustersCrossPartitions(t *testing.T) {
	const rows = 30000 // a table of 2^16 slots: four partitions of 2^14
	sealed, added := New("R", ab()), New("R", ab())
	sealed.EnsureIndex(tuple.NewSchema("A"))
	added.EnsureIndex(tuple.NewSchema("A"))
	const shift = 64 - 16
	edges := []uint64{1<<partBits - 1, 1<<16 - 1}
	var crafted [][2]int64
	for _, home := range edges {
		found := 0
		for b := int64(1 << 40); found < 6; b++ {
			if sealed.HashOf(tuple.Tuple{7, b})>>shift == home {
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
	c := crafted[len(crafted)-1]
	ops = append(ops, fillOp{A: c[0], B: c[1], M: -2}) // nets to zero in the wrapping cluster
	runFill(sealed, added, ops, -1)

	if got := len(sealed.s.tab.slots); got != 1<<16 {
		t.Fatalf("the seal built %d slots, want 2^16", got)
	}
	if d := sameRelation(sealed, added); d != "" {
		t.Fatalf("the sealed relation differs from MustAdd's: %s", d)
	}
	if d := checkTable(sealed); d != "" {
		t.Fatal(d)
	}
	for _, home := range edges {
		next, crossed := (home+1)&(1<<16-1), false
		for _, s := range sealed.s.tab.slots[next : next+32] {
			crossed = crossed || s != 0 && s>>shift == home
		}
		if !crossed {
			t.Errorf("no row homed at slot %d sits past it: the cluster at the edge did not cross", home)
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
	runFill(sealed, added, randomStream(rng, 500, 100, have), -1)
	pinned := added.Clone()
	pinned.EnsureIndex(tuple.NewSchema("A"))

	f := sealed.Freeze()
	defer f.Release()
	runFill(sealed, added, randomStream(rng, 3000, 100, have), -1)
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
		{"Seal on a frozen handle", func(*Relation) { f.Seal() }},
		{"Add during an open fill", func(r *Relation) {
			r.Append(tuple.Tuple{1, 1}, 1)
			r.MustAdd(tuple.Tuple{1, 1}, 1)
		}},
		{"a row below zero", func(r *Relation) {
			r.Append(tuple.Tuple{1, 1}, 1)
			r.Append(tuple.Tuple{1, 1}, -2)
			r.Seal()
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
	sealed.Seal()
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
		runFill(collapsed, small, stream(n, func(i int) fillOp { return distinct(i % keys) }), -1)
		if got, limit := len(collapsed.s.tab.slots), 8*len(small.s.tab.slots); got > limit {
			t.Errorf("a fill of %d rows that stored %d ends at %d slots, want at most %d", n, keys, got, limit)
		}
		if rows := cap(collapsed.s.mults); rows > 8*keys {
			t.Errorf("a fill of %d rows that stored %d ends with columns of %d rows, want at most %d", n, keys, rows, 8*keys)
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
			r.Seal()
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
// its key, its multiplicity (a negative one clamped to what the key holds),
// and whether to Seal, Add instead of Append, or Reserve before it — and
// checks the sealed relation against MustAdd's after every seal.
func FuzzSeal(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 3, 1, 1, 0xff, 0})
	f.Add([]byte{0, 5, 2, 9, 1, 4, 9, 0x80, 1, 9, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed, added := New("R", ab()), New("R", ab())
		sealed.EnsureIndex(tuple.NewSchema("A"))
		added.EnsureIndex(tuple.NewSchema("A"))
		have := map[[2]int64]int64{}
		check := func() {
			sealed.Seal()
			if d := sameRelation(sealed, added); d != "" {
				t.Fatalf("the sealed relation differs from MustAdd's: %s", d)
			}
			if d := checkTable(sealed); d != "" {
				t.Fatal(d)
			}
		}
		for ; len(data) >= 3; data = data[3:] {
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

	f := r.Freeze()
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
