package relation

import (
	"testing"

	"ivmeps/internal/tuple"
)

// Allocation-regression tests for the update hot path: steady-state probes
// and multiplicity changes must not allocate, insert/delete churn of the
// same tuples must reuse freed entry and bucket ids without allocating at
// all (no key string is ever built), and cold inserts must amortize to ~0
// allocations through column growth.

func allocRelation(t *testing.T) *Relation {
	t.Helper()
	r := New("R", tuple.NewSchema("A", "B"))
	for i := int64(0); i < 50; i++ {
		r.MustAdd(tuple.Tuple{i % 10, i}, 2)
	}
	return r
}

func TestMultZeroAllocs(t *testing.T) {
	r := allocRelation(t)
	probe := tuple.Tuple{3, 13}
	miss := tuple.Tuple{99, 99}
	if n := testing.AllocsPerRun(100, func() {
		r.Mult(probe)
		r.Mult(miss)
	}); n != 0 {
		t.Errorf("Mult allocates %v per run, want 0", n)
	}
}

func TestMultHashedZeroAllocs(t *testing.T) {
	r := allocRelation(t)
	probe := tuple.Tuple{3, 13}
	h := tuple.Hash(r.s.seed, probe)
	if n := testing.AllocsPerRun(100, func() {
		r.multHashed(h, probe)
	}); n != 0 {
		t.Errorf("multHashed allocates %v per run, want 0", n)
	}
}

func TestAddExistingZeroAllocs(t *testing.T) {
	r := allocRelation(t)
	r.EnsureIndex(tuple.NewSchema("A"))
	tu := tuple.Tuple{3, 13} // stored with multiplicity 2: ±1 never removes
	if n := testing.AllocsPerRun(100, func() {
		r.MustAdd(tu, 1)
		r.MustAdd(tu, -1)
	}); n != 0 {
		t.Errorf("Add of an existing tuple allocates %v per run, want 0", n)
	}
}

func TestAddHashedZeroAllocs(t *testing.T) {
	r := allocRelation(t)
	tu := tuple.Tuple{3, 13}
	h := tuple.Hash(r.s.seed, tu)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := r.addHashed(tu, h, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.addHashed(tu, h, -1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("addHashed allocates %v per run, want 0", n)
	}
}

func TestIndexProbesZeroAllocs(t *testing.T) {
	r := allocRelation(t)
	ix := r.EnsureIndex(tuple.NewSchema("A"))
	key := tuple.Tuple{3}
	miss := tuple.Tuple{77}
	sink := int64(0)
	fn := func(t tuple.Tuple, m int64) { sink += m }
	if n := testing.AllocsPerRun(100, func() {
		ix.Count(key)
		ix.Count(miss)
		ix.Has(key)
		ix.ForEachMatch(key, fn)
		for id := ix.First(key); id != End; id = ix.Next(id) {
			_, m := r.At(id)
			sink += m
		}
	}); n != 0 {
		t.Errorf("index probes allocate %v per run, want 0", n)
	}
}

// TestChurnZeroAllocs pins the allocation cost of insert/delete churn at
// zero: the entry and bucket ids of a removed tuple are reused, and the
// open-addressing tables need no per-insert key material, so re-inserting a
// previously seen shape costs nothing.
func TestChurnZeroAllocs(t *testing.T) {
	r := allocRelation(t)
	r.EnsureIndex(tuple.NewSchema("A"))
	r.EnsureIndex(tuple.NewSchema("B"))
	tu := tuple.Tuple{500, 501} // unique A and B values: churn empties both buckets
	// Warm the columns.
	r.MustAdd(tu, 1)
	r.MustAdd(tu, -1)
	if n := testing.AllocsPerRun(100, func() {
		r.MustAdd(tu, 1)
		r.MustAdd(tu, -1)
	}); n != 0 {
		t.Errorf("insert/delete churn allocates %v per run, want 0", n)
	}
}

// TestColdInsertAmortized pins the column amortization: inserting many
// previously unseen tuples into an indexed relation costs well under one
// allocation per tuple (column and table doublings only).
func TestColdInsertAmortized(t *testing.T) {
	const inserts = 1000
	n := testing.AllocsPerRun(10, func() {
		r := New("R", tuple.NewSchema("A", "B"))
		r.EnsureIndex(tuple.NewSchema("A"))
		r.EnsureIndex(tuple.NewSchema("B"))
		for i := int64(0); i < inserts; i++ {
			r.MustAdd(tuple.Tuple{i % 37, i}, 1)
		}
	})
	if perInsert := n / inserts; perInsert > 0.25 {
		t.Errorf("cold inserts allocate %v per tuple (%v per run), want ≤ 0.25 amortized", perInsert, n)
	}
}

// TestClearRefillZeroAllocs pins the major-rebalance pattern: after Clear,
// refilling the same tuples reuses the truncated columns and the tables'
// slot arrays, allocating nothing.
func TestClearRefillZeroAllocs(t *testing.T) {
	r := New("R", tuple.NewSchema("A", "B"))
	r.EnsureIndex(tuple.NewSchema("A"))
	fill := func() {
		for i := int64(0); i < 200; i++ {
			r.MustAdd(tuple.Tuple{i % 10, i}, 1)
		}
	}
	fill()
	if n := testing.AllocsPerRun(50, func() {
		r.Clear()
		fill()
	}); n != 0 {
		t.Errorf("Clear+refill allocates %v per run, want 0", n)
	}
}

// TestPoolCorrectness exercises reused entry and bucket ids for correctness:
// after churn, contents and index enumeration stay exact.
func TestPoolCorrectness(t *testing.T) {
	r := New("R", tuple.NewSchema("A", "B"))
	ix := r.EnsureIndex(tuple.NewSchema("A"))
	for round := 0; round < 5; round++ {
		for i := int64(0); i < 20; i++ {
			r.MustAdd(tuple.Tuple{i % 4, i}, 1+i%3)
		}
		for i := int64(0); i < 20; i++ {
			if round%2 == 0 {
				r.MustAdd(tuple.Tuple{i % 4, i}, -(1 + i%3))
			}
		}
	}
	// Rounds 1 and 3 each inserted 20 tuples that were never deleted; each
	// tuple {i%4, i} was inserted twice with multiplicity 1+i%3.
	if r.Size() != 20 {
		t.Fatalf("size after churn: %d, want 20", r.Size())
	}
	for i := int64(0); i < 20; i++ {
		want := 2 * (1 + i%3)
		if got := r.Mult(tuple.Tuple{i % 4, i}); got != want {
			t.Fatalf("Mult({%d,%d}) = %d, want %d", i%4, i, got, want)
		}
	}
	for a := int64(0); a < 4; a++ {
		if got := ix.Count(tuple.Tuple{a}); got != 5 {
			t.Fatalf("index count for A=%d: %d, want 5", a, got)
		}
	}
}
