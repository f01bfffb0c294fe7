package relation

import (
	"testing"

	"ivmeps/internal/tuple"
)

// fillCounting adds adds rows over distinct distinct tuples and returns how
// many times the entry table grew on the way.
func fillCounting(r *Relation, adds, distinct int64) (grows int) {
	slots := len(r.s.tab.slots)
	for i := int64(0); i < adds; i++ {
		r.MustAdd(tuple.Tuple{i % distinct, (i % distinct) * 7}, 1)
		if n := len(r.s.tab.slots); n != slots {
			slots = n
			grows++
		}
	}
	return grows
}

// A hinted fill reaches the size doubling reaches, in a few steps, with
// columns of exactly the hinted rows; a hint that overstates the fill costs
// at most one 8× step; a hint never shrinks a
// table, and growth is back to doubling once it is withdrawn.
func TestGrowHint(t *testing.T) {
	const n = 1_000_000
	schema := tuple.NewSchema("A", "B")

	doubled, hinted := New("R", schema), New("R", schema)
	doublings := fillCounting(doubled, n, n)
	hinted.GrowHint(n)
	grows := fillCounting(hinted, n, n)
	hinted.GrowHint(0)
	if grows >= 8 || doublings != 19 { // the first eight slots and 18 doublings
		t.Errorf("a hinted fill of %d rows grew the table %d times (want < 8), an unhinted one %d times (want 19)", n, grows, doublings)
	}
	if got, want := len(hinted.s.tab.slots), len(doubled.s.tab.slots); got != want {
		t.Errorf("a hinted fill of %d rows ends at %d slots, doubling at %d", n, got, want)
	}
	if rows, vals := cap(hinted.s.mults), cap(hinted.s.tab.vals); rows != n || vals != 2*n {
		t.Errorf("a hinted fill of %d rows ends with columns of %d rows and %d values, want exactly %d and %d", n, rows, vals, n, 2*n)
	}

	small, collapsed := New("R", schema), New("R", schema)
	fillCounting(small, n, 100)
	collapsed.GrowHint(n)
	fillCounting(collapsed, n, 100)
	collapsed.GrowHint(0)
	if got, limit := len(collapsed.s.tab.slots), 8*len(small.s.tab.slots); got > limit {
		t.Errorf("a fill hinted at %d rows that stored 100 ends at %d slots, want at most %d", n, got, limit)
	}

	before := len(hinted.s.tab.slots)
	hinted.GrowHint(10)
	hinted.MustAdd(tuple.Tuple{-1, -1}, 1)
	hinted.GrowHint(0)
	if got := len(hinted.s.tab.slots); got != before {
		t.Errorf("a hint of 10 rows took a table of %d slots to %d", before, got)
	}
	for len(collapsed.s.tab.slots) == 8*len(small.s.tab.slots) {
		i := int64(collapsed.Size())
		collapsed.MustAdd(tuple.Tuple{i, i * 7}, 1)
	}
	if got, want := len(collapsed.s.tab.slots), 16*len(small.s.tab.slots); got != want {
		t.Errorf("after the hint was withdrawn the table grew to %d slots, want a doubling to %d", got, want)
	}
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
