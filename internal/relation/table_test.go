package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ivmeps/internal/tuple"
)

// Property tests for the open-addressing storage: the relation (entry table
// + index bucket tables + free-id lists) must match a
// map[[2]int64]-backed model under random Add/Clear/index churn, and the
// raw table's backward-shift deletion must stay correct around slot-array
// wraparound.

// tableOp is one random operation against the relation under test.
type tableOp struct {
	A, B  int8
	Mult  int8
	Clear bool
}

// tableScript is a quick-generated operation sequence.
type tableScript struct {
	Ops []tableOp
}

// Generate implements quick.Generator with bounded sizes. Clears are rare
// enough that tables regrow churn between them.
func (tableScript) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(300) + 1
	s := tableScript{Ops: make([]tableOp, n)}
	for i := range s.Ops {
		s.Ops[i] = tableOp{
			A:     int8(r.Intn(8)),
			B:     int8(r.Intn(8)),
			Mult:  int8(r.Intn(9) - 4),
			Clear: r.Intn(40) == 0,
		}
	}
	return reflect.ValueOf(s)
}

// Property: after any op sequence with interleaved Clears, the relation
// agrees with a map[[2]int64]int64 model on size, multiplicities,
// index counts, distinct-key counts, and enumeration contents. The
// 8×8-value domain with deletes drives heavy insert/delete churn through
// the tables' backward-shift deletion and the entry and bucket id reuse.
func TestQuickTableMatchesKeyModel(t *testing.T) {
	f := func(s tableScript) bool {
		r := New("R", tuple.NewSchema("A", "B"))
		ixA := r.EnsureIndex(tuple.NewSchema("A"))
		ixB := r.EnsureIndex(tuple.NewSchema("B"))
		model := map[[2]int64]int64{}
		for _, o := range s.Ops {
			if o.Clear {
				r.Clear()
				clear(model)
				continue
			}
			tup := tuple.Tuple{int64(o.A), int64(o.B)}
			key := [2]int64{tup[0], tup[1]}
			err := r.Add(tup, int64(o.Mult))
			if model[key]+int64(o.Mult) < 0 {
				if err == nil {
					return false
				}
				continue
			}
			if err != nil {
				return false
			}
			model[key] += int64(o.Mult)
			if model[key] == 0 {
				delete(model, key)
			}
		}
		if r.Size() != len(model) {
			return false
		}
		countA := map[int64]int{}
		countB := map[int64]int{}
		for k, m := range model {
			if r.Mult(k[:]) != m {
				return false
			}
			countA[k[0]]++
			countB[k[1]]++
		}
		// Every absent tuple of the domain probes to 0.
		for a := int64(0); a < 8; a++ {
			for b := int64(0); b < 8; b++ {
				if _, ok := model[[2]int64{a, b}]; !ok && r.Mult(tuple.Tuple{a, b}) != 0 {
					return false
				}
			}
		}
		if ixA.DistinctKeys() != len(countA) || ixB.DistinctKeys() != len(countB) {
			return false
		}
		for a, c := range countA {
			if ixA.Count(tuple.Tuple{a}) != c {
				return false
			}
		}
		for b, c := range countB {
			if ixB.Count(tuple.Tuple{b}) != c {
				return false
			}
		}
		seen := 0
		ok := true
		r.ForEach(func(tu tuple.Tuple, m int64) {
			seen++
			if model[[2]int64{tu[0], tu[1]}] != m {
				ok = false
			}
		})
		return ok && seen == len(model)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestTableBackwardShiftWraparound exercises del's backward shift directly
// with crafted hashes whose probe clusters wrap around the end of the slot
// array: after every deletion order, the surviving keys must stay reachable
// under their original hashes and ids.
func TestTableBackwardShiftWraparound(t *testing.T) {
	// 8-slot tables (below the grow threshold of 6 keys), a home slot being a
	// hash's top three bits: homes 6,6,7,0 form the cluster 6,7,0,1 across
	// the wrap point, and in 5,5,7,7 the last key sits past the wrap point
	// and before a possible hole at 6 that it must not move into.
	for _, homes := range [][]uint64{{6, 6, 7, 0}, {5, 5, 7, 7}} {
		for del1 := range homes {
			for del2 := range homes {
				if del2 != del1 {
					checkBackwardShift(t, homes, del1, del2)
				}
			}
		}
	}
}

// checkBackwardShift stores one key per home slot, deletes two of them, and
// checks that the rest stay reachable and a later insert lands.
func checkBackwardShift(t *testing.T, homes []uint64, del1, del2 int) {
	t.Helper()
	key := func(i int) tuple.Tuple { return tuple.Tuple{int64(i)} }
	hash := func(i int) uint64 { return homes[i] << 61 }
	tab := table{arity: 1}
	for i := range homes {
		slot, _, _ := tab.find(hash(i), key(i))
		tab.put(slot, hash(i), key(i), ID(i))
	}
	if len(tab.slots) != minSlots {
		t.Fatalf("table grew to %d slots; test assumes %d", len(tab.slots), minSlots)
	}
	for _, d := range []int{del1, del2} {
		slot, id, ok := tab.find(hash(d), key(d))
		if !ok || id != ID(d) {
			t.Fatalf("homes %v, del order (%d,%d): key %d not found before its delete", homes, del1, del2, d)
		}
		tab.del(slot)
	}
	if tab.count != len(homes)-2 {
		t.Fatalf("homes %v, del order (%d,%d): count = %d, want %d", homes, del1, del2, tab.count, len(homes)-2)
	}
	for i := range homes {
		_, id, ok := tab.find(hash(i), key(i))
		if i == del1 || i == del2 {
			if ok {
				t.Fatalf("homes %v, del order (%d,%d): deleted key %d still reachable", homes, del1, del2, i)
			}
		} else if !ok || id != ID(i) {
			t.Fatalf("homes %v, del order (%d,%d): key %d lost after backward shift", homes, del1, del2, i)
		}
	}
	// The hole left behind must not break later inserts.
	slot, _, _ := tab.find(7<<61, key(99))
	tab.put(slot, 7<<61, key(99), ID(len(homes)))
	if _, id, ok := tab.find(7<<61, key(99)); !ok || id != ID(len(homes)) {
		t.Fatalf("homes %v, del order (%d,%d): insert into shifted cluster lost", homes, del1, del2)
	}
}

// TestTableQuickWraparound drives the raw table with random constrained
// hashes (eight homes in an 8..64-slot table, the last one's cluster
// running past the end) so clusters constantly collide and wrap, against a
// map model, including interleaved clears.
func TestTableQuickWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type stored struct {
		id ID
		h  uint64
	}
	for round := 0; round < 200; round++ {
		tab := table{arity: 1}
		byVal := map[int64]stored{}
		next := int64(0)
		for op := 0; op < 120; op++ {
			switch {
			case rng.Intn(20) == 0:
				tab.clear()
				clear(byVal)
			case rng.Intn(2) == 0 || len(byVal) == 0:
				v := next
				next++
				h := uint64(rng.Intn(8)) << 61 // dense collisions, forced wraparound
				slot, _, ok := tab.find(h, tuple.Tuple{v})
				if ok {
					t.Fatalf("round %d op %d: fresh value %d found", round, op, v)
				}
				id := ID(len(tab.vals)) // deleted ids are not reused here
				tab.put(slot, h, tuple.Tuple{v}, id)
				byVal[v] = stored{id, h}
			default:
				// Delete a random present value.
				var v int64
				for v = range byVal {
					break
				}
				slot, _, _ := tab.find(byVal[v].h, tuple.Tuple{v})
				tab.del(slot)
				delete(byVal, v)
			}
			if tab.count != len(byVal) {
				t.Fatalf("round %d op %d: count %d != model %d", round, op, tab.count, len(byVal))
			}
			for v, st := range byVal {
				if _, id, ok := tab.find(st.h, tuple.Tuple{v}); !ok || id != st.id {
					t.Fatalf("round %d op %d: value %d unreachable", round, op, v)
				}
			}
		}
	}
}
