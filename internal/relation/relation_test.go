package relation

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ivmeps/internal/tuple"
)

func ab() tuple.Schema { return tuple.NewSchema("A", "B") }

func TestAddLookupDelete(t *testing.T) {
	r := New("R", ab())
	if r.Size() != 0 || r.Mult(tuple.Tuple{1, 2}) != 0 {
		t.Fatalf("fresh relation not empty")
	}
	if err := r.Add(tuple.Tuple{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if r.Mult(tuple.Tuple{1, 2}) != 3 || r.Size() != 1 {
		t.Fatalf("after insert: mult=%d size=%d", r.Mult(tuple.Tuple{1, 2}), r.Size())
	}
	if err := r.Add(tuple.Tuple{1, 2}, -3); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 0 || r.Contains(tuple.Tuple{1, 2}) {
		t.Fatalf("delete to zero did not remove entry")
	}
}

func TestAddRejectsNegative(t *testing.T) {
	r := New("R", ab())
	r.MustAdd(tuple.Tuple{1, 2}, 2)
	err := r.Add(tuple.Tuple{1, 2}, -5)
	if err == nil {
		t.Fatalf("over-delete accepted")
	}
	if _, ok := err.(*MultiplicityError); !ok {
		t.Fatalf("error type = %T", err)
	}
	if r.Mult(tuple.Tuple{1, 2}) != 2 {
		t.Fatalf("failed delete mutated relation")
	}
	if err := r.Add(tuple.Tuple{9, 9}, -1); err == nil {
		t.Fatalf("delete of absent tuple accepted")
	}
}

func TestAddArityMismatch(t *testing.T) {
	r := New("R", ab())
	if err := r.Add(tuple.Tuple{1}, 1); err == nil {
		t.Fatalf("arity mismatch accepted")
	}
}

func TestSetAndClear(t *testing.T) {
	r := New("R", ab())
	r.Set(tuple.Tuple{1, 1}, 5)
	r.Set(tuple.Tuple{1, 1}, 2)
	if r.Mult(tuple.Tuple{1, 1}) != 2 {
		t.Fatalf("Set override failed")
	}
	r.Set(tuple.Tuple{1, 1}, 0)
	if r.Size() != 0 {
		t.Fatalf("Set to 0 did not delete")
	}
	ix := r.EnsureIndex(tuple.NewSchema("A"))
	r.MustAdd(tuple.Tuple{1, 2}, 1)
	r.Clear()
	if r.Size() != 0 || ix.DistinctKeys() != 0 || r.TotalMultiplicity() != 0 {
		t.Fatalf("Clear left state behind")
	}
	// Index still live after Clear.
	r.MustAdd(tuple.Tuple{3, 4}, 1)
	if ix.Count(tuple.Tuple{3}) != 1 {
		t.Fatalf("index not maintained after Clear")
	}
}

func TestEnumerationOrder(t *testing.T) {
	r := New("R", ab())
	in := []tuple.Tuple{{3, 1}, {1, 1}, {2, 2}}
	for _, x := range in {
		r.MustAdd(x, 1)
	}
	var got []tuple.Tuple
	r.ForEach(func(x tuple.Tuple, m int64) { got = append(got, x.Clone()) })
	for i := range in {
		if !got[i].Equal(in[i]) {
			t.Fatalf("insertion order not preserved: %v", got)
		}
	}
	// Delete middle, enumerate again.
	r.MustAdd(tuple.Tuple{1, 1}, -1)
	got = nil
	for id := r.First(); id != End; id = r.Next(id) {
		tu, _ := r.At(id)
		got = append(got, tu)
	}
	if len(got) != 2 || !got[0].Equal(tuple.Tuple{3, 1}) || !got[1].Equal(tuple.Tuple{2, 2}) {
		t.Fatalf("after delete: %v", got)
	}
	// The next insert takes the freed id, yet enumerates last; so does the
	// deleted tuple inserted again.
	r.MustAdd(tuple.Tuple{4, 4}, 1)
	r.MustAdd(tuple.Tuple{3, 1}, -1)
	r.MustAdd(tuple.Tuple{3, 1}, 1)
	got = nil
	r.ForEach(func(x tuple.Tuple, m int64) { got = append(got, x.Clone()) })
	if len(got) != 3 || !got[0].Equal(tuple.Tuple{2, 2}) || !got[1].Equal(tuple.Tuple{4, 4}) || !got[2].Equal(tuple.Tuple{3, 1}) {
		t.Fatalf("after re-inserts through freed ids: %v", got)
	}
}

func TestIndexBasics(t *testing.T) {
	r := New("R", ab())
	ix := r.EnsureIndex(tuple.NewSchema("A"))
	for b := 0; b < 5; b++ {
		r.MustAdd(tuple.Tuple{1, tuple.Value(b)}, 1)
	}
	r.MustAdd(tuple.Tuple{2, 7}, 1)

	if ix.Count(tuple.Tuple{1}) != 5 || ix.Count(tuple.Tuple{2}) != 1 || ix.Count(tuple.Tuple{3}) != 0 {
		t.Fatalf("counts wrong: %d %d %d", ix.Count(tuple.Tuple{1}), ix.Count(tuple.Tuple{2}), ix.Count(tuple.Tuple{3}))
	}
	if !ix.Has(tuple.Tuple{1}) || ix.Has(tuple.Tuple{3}) {
		t.Fatalf("Has wrong")
	}
	if ix.DistinctKeys() != 2 {
		t.Fatalf("DistinctKeys = %d", ix.DistinctKeys())
	}
	ms := ix.Matches(tuple.Tuple{1})
	if len(ms) != 5 {
		t.Fatalf("Matches = %d entries", len(ms))
	}
	// Delete two tuples of key 1 and re-check.
	r.MustAdd(tuple.Tuple{1, 0}, -1)
	r.MustAdd(tuple.Tuple{1, 3}, -1)
	if ix.Count(tuple.Tuple{1}) != 3 {
		t.Fatalf("count after delete = %d", ix.Count(tuple.Tuple{1}))
	}
	r.MustAdd(tuple.Tuple{2, 7}, -1)
	if ix.Has(tuple.Tuple{2}) || ix.DistinctKeys() != 1 {
		t.Fatalf("empty bucket not removed")
	}
}

func TestIndexCreatedLate(t *testing.T) {
	r := New("R", ab())
	r.MustAdd(tuple.Tuple{1, 2}, 1)
	r.MustAdd(tuple.Tuple{1, 3}, 2)
	ix := r.EnsureIndex(tuple.NewSchema("A"))
	if ix.Count(tuple.Tuple{1}) != 2 {
		t.Fatalf("late index not populated: %d", ix.Count(tuple.Tuple{1}))
	}
	// EnsureIndex is idempotent.
	if r.EnsureIndex(tuple.NewSchema("A")) != ix {
		t.Fatalf("EnsureIndex created duplicate")
	}
	if r.Index(tuple.NewSchema("B")) != nil {
		t.Fatalf("Index returned non-existent index")
	}
}

func TestIndexCursor(t *testing.T) {
	r := New("R", ab())
	ix := r.EnsureIndex(tuple.NewSchema("A"))
	r.MustAdd(tuple.Tuple{5, 1}, 1)
	r.MustAdd(tuple.Tuple{5, 2}, 1)
	r.MustAdd(tuple.Tuple{6, 9}, 1)
	var seen []tuple.Value
	for id := ix.First(tuple.Tuple{5}); id != End; id = ix.Next(id) {
		tu, _ := r.At(id)
		seen = append(seen, tu[1])
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("cursor walk = %v", seen)
	}
	if ix.First(tuple.Tuple{7}) != End || ix.FirstMatch(tuple.Tuple{7}) != nil {
		t.Fatalf("cursor on absent key not at End")
	}
	if got := ix.FirstMatch(tuple.Tuple{5}); !got.Equal(tuple.Tuple{5, 1}) {
		t.Fatalf("FirstMatch = %v, want [5 1]", got)
	}
}

func TestMultipleIndexes(t *testing.T) {
	r := New("R", ab())
	ixA := r.EnsureIndex(tuple.NewSchema("A"))
	ixB := r.EnsureIndex(tuple.NewSchema("B"))
	r.MustAdd(tuple.Tuple{1, 10}, 1)
	r.MustAdd(tuple.Tuple{2, 10}, 1)
	if ixA.Count(tuple.Tuple{1}) != 1 || ixB.Count(tuple.Tuple{10}) != 2 {
		t.Fatalf("multi-index counts wrong")
	}
	r.MustAdd(tuple.Tuple{1, 10}, -1)
	if ixA.Has(tuple.Tuple{1}) || ixB.Count(tuple.Tuple{10}) != 1 {
		t.Fatalf("multi-index delete wrong")
	}
}

// modelCheck compares the Relation against a plain map model under a random
// workload, including index counts.
func TestModelBasedRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := New("R", ab())
	ixA := r.EnsureIndex(tuple.NewSchema("A"))
	model := map[[2]int64]int64{}

	for step := 0; step < 20000; step++ {
		a, b := rng.Int63n(20), rng.Int63n(20)
		key := [2]int64{a, b}
		tup := tuple.Tuple{tuple.Value(a), tuple.Value(b)}
		var m int64
		if rng.Intn(2) == 0 {
			m = 1 + rng.Int63n(3)
		} else {
			m = -(1 + rng.Int63n(3))
		}
		err := r.Add(tup, m)
		if model[key]+m < 0 {
			if err == nil {
				t.Fatalf("step %d: expected rejection", step)
			}
		} else {
			if err != nil {
				t.Fatalf("step %d: unexpected error %v", step, err)
			}
			model[key] += m
			if model[key] == 0 {
				delete(model, key)
			}
		}
	}
	if r.Size() != len(model) {
		t.Fatalf("size %d != model %d", r.Size(), len(model))
	}
	counts := map[int64]int{}
	var total int64
	for k, v := range model {
		if r.Mult(tuple.Tuple{tuple.Value(k[0]), tuple.Value(k[1])}) != v {
			t.Fatalf("mult mismatch at %v", k)
		}
		counts[k[0]]++
		total += v
	}
	if r.TotalMultiplicity() != total {
		t.Fatalf("total multiplicity %d != %d", r.TotalMultiplicity(), total)
	}
	for a, c := range counts {
		if ixA.Count(tuple.Tuple{tuple.Value(a)}) != c {
			t.Fatalf("index count mismatch at A=%d: %d != %d", a, ixA.Count(tuple.Tuple{tuple.Value(a)}), c)
		}
	}
	if ixA.DistinctKeys() != len(counts) {
		t.Fatalf("distinct keys %d != %d", ixA.DistinctKeys(), len(counts))
	}
}

func TestCloneIndependent(t *testing.T) {
	r := New("R", ab())
	r.MustAdd(tuple.Tuple{1, 2}, 4)
	c := r.Clone()
	c.MustAdd(tuple.Tuple{1, 2}, -4)
	if r.Mult(tuple.Tuple{1, 2}) != 4 {
		t.Fatalf("clone aliases original")
	}
}

func TestPartitionRebuildStrict(t *testing.T) {
	r := New("R", ab())
	// Key A=1 has degree 5, key A=2 degree 1, key A=3 degree 3.
	for b := 0; b < 5; b++ {
		r.MustAdd(tuple.Tuple{1, tuple.Value(b)}, 1)
	}
	r.MustAdd(tuple.Tuple{2, 0}, 1)
	for b := 0; b < 3; b++ {
		r.MustAdd(tuple.Tuple{3, tuple.Value(b)}, 1)
	}
	p := NewPartition(r, tuple.NewSchema("A"), "R_A")
	p.Rebuild(3) // θ=3: light iff degree < 3 → only A=2 light
	if !p.CheckStrict(3) {
		t.Fatalf("strict conditions violated after Rebuild")
	}
	if p.Light().Size() != 1 || !p.IsLight(tuple.Tuple{2}) {
		t.Fatalf("light part wrong: %v", p.Light())
	}
	if p.IsLight(tuple.Tuple{1}) || p.IsLight(tuple.Tuple{3}) {
		t.Fatalf("heavy keys leaked into light part")
	}
	p.Rebuild(10) // everything light
	if p.Light().Size() != 9 || !p.CheckStrict(10) {
		t.Fatalf("θ=10 rebuild wrong: size=%d", p.Light().Size())
	}
	p.Rebuild(1) // nothing light (degree ≥ 1 always)
	if p.Light().Size() != 0 || !p.CheckStrict(1) {
		t.Fatalf("θ=1 rebuild wrong")
	}
}

func TestPartitionLooseCheck(t *testing.T) {
	r := New("R", ab())
	for b := 0; b < 4; b++ {
		r.MustAdd(tuple.Tuple{1, tuple.Value(b)}, 1)
	}
	p := NewPartition(r, tuple.NewSchema("A"), "R_A")
	p.Rebuild(3) // A=1 heavy (deg 4 ≥ 3)
	if !p.CheckLoose(3) {
		t.Fatalf("loose check failed after strict rebuild")
	}
	// Remove tuples from R so the heavy key's degree drops below ½θ → loose
	// condition violated (this is what triggers minor rebalancing).
	r.MustAdd(tuple.Tuple{1, 0}, -1)
	r.MustAdd(tuple.Tuple{1, 1}, -1)
	r.MustAdd(tuple.Tuple{1, 2}, -1)
	if p.CheckLoose(3) {
		t.Fatalf("loose check passed with heavy degree 1 < ½·3")
	}
}

func TestThreshold(t *testing.T) {
	if Threshold(100, 0.5) != 10 {
		t.Errorf("Threshold(100, .5) = %v", Threshold(100, 0.5))
	}
	if Threshold(100, 0) != 1 {
		t.Errorf("Threshold(100, 0) = %v", Threshold(100, 0))
	}
	if Threshold(0, 0.5) != 1 {
		t.Errorf("Threshold(0, .5) = %v", Threshold(0, 0.5))
	}
}

func TestEntriesSnapshotSorted(t *testing.T) {
	r := New("R", ab())
	r.MustAdd(tuple.Tuple{2, 1}, 1)
	r.MustAdd(tuple.Tuple{1, 1}, 2)
	es := r.Entries()
	sort.Slice(es, func(i, j int) bool { return es[i].Tuple.Less(es[j].Tuple) })
	if !es[0].Tuple.Equal(tuple.Tuple{1, 1}) || es[0].Mult != 2 {
		t.Fatalf("Entries snapshot wrong: %+v", es)
	}
}

// TestStoreColumnsPointerFree guards the layout: every slice of a relation's
// or an index's store that grows with |R| holds pointer-free elements, so
// the garbage collector has nothing to scan per stored tuple.
func TestStoreColumnsPointerFree(t *testing.T) {
	r := New("R", ab())
	ix := r.EnsureIndex(tuple.NewSchema("A"))
	fill := func(from, to int64) {
		for i := from; i < to; i++ {
			r.MustAdd(tuple.Tuple{i, i}, 1)
		}
	}
	fill(0, 100)
	before := storeSlices(r.s, ix.s)
	fill(100, 1000)
	grown := 0
	for name, col := range storeSlices(r.s, ix.s) {
		if col.len > before[name].len {
			grown++
			if hasPointers(col.elem) {
				t.Errorf("%s grows with |R| and holds %v, which contains pointers", name, col.elem)
			}
		}
	}
	if grown < 9 {
		t.Errorf("%d slices grew with |R|, want the 9 columns of the entry and bucket stores", grown)
	}
}

type storeSlice struct {
	len  int
	elem reflect.Type
}

// storeSlices returns every slice field of the given store pointers, nested
// struct fields included, by field path.
func storeSlices(stores ...any) map[string]storeSlice {
	out := map[string]storeSlice{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+"."+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Slice:
				out[name] = storeSlice{f.Len(), f.Type().Elem()}
			case reflect.Struct:
				walk(name, f)
			}
		}
	}
	for _, s := range stores {
		v := reflect.ValueOf(s).Elem()
		walk(v.Type().Name(), v)
	}
	return out
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
