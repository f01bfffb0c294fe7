package tuple

import (
	"math/rand"
	"testing"
)

func TestHashEqualTuplesHashEqual(t *testing.T) {
	seed := NewSeed()
	cases := []Tuple{nil, {}, {0}, {1}, {-1}, {1, 2}, {2, 1}, {1, 2, 3, 4, 5}, {0, 0, 0}}
	for _, c := range cases {
		if Hash(seed, c) != Hash(seed, c.Clone()) {
			t.Errorf("tuple %v: clone hashes differently", c)
		}
	}
	// nil and the empty tuple are the same zero-arity key.
	if Hash(seed, nil) != Hash(seed, Tuple{}) {
		t.Error("nil and empty tuple hash differently")
	}
}

func TestHashPrefixMatchesFullArity(t *testing.T) {
	seed := NewSeed()
	tu := Tuple{7, -3, 0, 1 << 40, 5}
	for n := 0; n <= len(tu); n++ {
		if HashPrefix(seed, tu, n) != Hash(seed, tu[:n]) {
			t.Errorf("HashPrefix(t, %d) != Hash(t[:%d])", n, n)
		}
	}
}

func TestHashSeedsIndependent(t *testing.T) {
	s1, s2 := NewSeed(), NewSeed()
	if s1 == s2 {
		t.Fatal("NewSeed returned equal seeds")
	}
	tu := Tuple{1, 2, 3}
	if Hash(s1, tu) == Hash(s2, tu) {
		t.Error("distinct seeds produced an identical hash (exceedingly unlikely)")
	}
}

func TestHashArityMatters(t *testing.T) {
	// {0} and {0,0} must not collide just because values are zero.
	seed := NewSeed()
	if Hash(seed, Tuple{0}) == Hash(seed, Tuple{0, 0}) {
		t.Error("zero tuples of different arity collide")
	}
}

// FuzzHash checks hashing consistency: equal tuples hash equal, Hash agrees
// with HashPrefix at full arity, and prefixes hash like their reslices.
func FuzzHash(f *testing.F) {
	f.Add(uint64(1), int64(0), int64(0), int64(0), 3)
	f.Add(uint64(42), int64(-1), int64(1), int64(1<<62), 2)
	f.Add(uint64(0), int64(7), int64(7), int64(7), 0)
	f.Fuzz(func(t *testing.T, seed uint64, a, b, c int64, n int) {
		tu := Tuple{a, b, c}
		if n < 0 {
			n = -n
		}
		n %= len(tu) + 1
		if Hash(seed, tu) != Hash(seed, tu.Clone()) {
			t.Fatalf("clone of %v hashes differently", tu)
		}
		if Hash(seed, tu) != HashPrefix(seed, tu, len(tu)) {
			t.Fatalf("Hash != HashPrefix at full arity for %v", tu)
		}
		if HashPrefix(seed, tu, n) != Hash(seed, tu[:n]) {
			t.Fatalf("HashPrefix(%v, %d) != Hash of the reslice", tu, n)
		}
	})
}

func TestIntMapBasic(t *testing.T) {
	var m IntMap
	if _, ok := m.Get(Tuple{1}); ok {
		t.Fatal("empty map reported a key")
	}
	for i := int64(0); i < 100; i++ {
		m.Put(Tuple{i, i % 7}, int(i))
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d, want 100", m.Len())
	}
	for i := int64(0); i < 100; i++ {
		v, ok := m.Get(Tuple{i, i % 7})
		if !ok || v != int(i) {
			t.Fatalf("Get({%d,%d}) = %d,%v want %d,true", i, i%7, v, ok, i)
		}
	}
	if _, ok := m.Get(Tuple{100, 2}); ok {
		t.Fatal("absent key reported present")
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if _, ok := m.Get(Tuple{3, 3}); ok {
		t.Fatal("key survived Reset")
	}
	// Reuse after Reset.
	m.Put(Tuple{5}, 50)
	if v, ok := m.Get(Tuple{5}); !ok || v != 50 {
		t.Fatalf("Get after Reset+Put = %d,%v", v, ok)
	}
}

func TestIntMapPutCopy(t *testing.T) {
	var m IntMap
	scratch := make(Tuple, 2)
	for i := int64(0); i < 50; i++ {
		scratch[0], scratch[1] = i, i*i
		m.PutCopy(scratch, int(i))
		scratch[0], scratch[1] = -1, -1 // clobber the scratch
	}
	for i := int64(0); i < 50; i++ {
		if v, ok := m.Get(Tuple{i, i * i}); !ok || v != int(i) {
			t.Fatalf("PutCopy key {%d,%d}: got %d,%v", i, i*i, v, ok)
		}
	}
}

func TestIntMapEmptyTupleKey(t *testing.T) {
	var m IntMap
	m.Put(nil, 7)
	if v, ok := m.Get(nil); !ok || v != 7 {
		t.Fatalf("Get(nil) = %d,%v want 7,true", v, ok)
	}
	if v, ok := m.Get(Tuple{}); !ok || v != 7 {
		t.Fatalf("Get(empty) = %d,%v want 7,true", v, ok)
	}
	m.Reset()
	m.PutCopy(Tuple{}, 9)
	if v, ok := m.Get(nil); !ok || v != 9 {
		t.Fatalf("Get(nil) after PutCopy = %d,%v want 9,true", v, ok)
	}
}

func TestIntMapSteadyStateZeroAllocs(t *testing.T) {
	var m IntMap
	keys := make([]Tuple, 64)
	for i := range keys {
		keys[i] = Tuple{int64(i), int64(i % 5)}
	}
	// Warm to capacity.
	for _, k := range keys {
		m.Put(k, 1)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.Reset()
		for i, k := range keys {
			m.Put(k, i)
		}
		for _, k := range keys {
			if _, ok := m.Get(k); !ok {
				t.Fatal("lost key")
			}
		}
	}); n != 0 {
		t.Errorf("warmed Reset+Put+Get cycle allocates %v per run, want 0", n)
	}
}

// TestIntMapResetProportional: what a use of a pooled map costs depends on
// that use, not on the largest before it. After a 100 000-key use, a 20-key
// use probes — and its Reset clears — a table of at most 256 slots, Reset
// leaves nothing behind anywhere in the arrays, and through rounds of mixed
// sizes the map agrees with a built-in one.
func TestIntMapResetProportional(t *testing.T) {
	var m IntMap
	fill := func(n int) {
		for i := 0; i < n; i++ {
			m.Put(Tuple{int64(i), int64(i % 3)}, i)
		}
	}
	fill(100000)
	if m.TableSlots() < 100000 {
		t.Fatalf("100 000 keys in %d slots", m.TableSlots())
	}
	m.Reset()
	fill(20)
	if n := m.TableSlots(); n > 256 {
		t.Fatalf("after a 100 000-key use, Reset after a 20-key use clears %d slots, want at most 256", n)
	}
	m.Reset()
	if !m.ArraysClear() {
		t.Fatal("Reset left an entry number or a key reference behind")
	}

	rng := rand.New(rand.NewSource(5))
	scratch := make(Tuple, 2)
	for round := 0; round < 1000; round++ {
		size := rng.Intn(40)
		switch rng.Intn(20) {
		case 0:
			size = 2000 + rng.Intn(3000)
		case 1, 2:
			size = 100 + rng.Intn(400)
		}
		model, keys := map[string]int{}, []Tuple(nil)
		for i := 0; i < size; i++ {
			scratch[0], scratch[1] = rng.Int63n(int64(2*size+1)), rng.Int63n(3)
			want, present := model[scratch.String()]
			got, h, ok := m.GetHash(scratch)
			if ok != present || got != want {
				t.Fatalf("round %d: Get(%v) = %d, %v; the model has %d, %v", round, scratch, got, ok, want, present)
			}
			if !ok {
				m.PutCopyHashed(h, scratch, i)
				model[scratch.String()] = i
				keys = append(keys, scratch.Clone())
			}
		}
		if m.Len() != len(model) {
			t.Fatalf("round %d: Len = %d, the model has %d", round, m.Len(), len(model))
		}
		for _, k := range keys {
			if got, ok := m.Get(k); !ok || got != model[k.String()] {
				t.Fatalf("round %d: Get(%v) = %d, %v; want %d", round, k, got, ok, model[k.String()])
			}
		}
		m.Reset()
	}
	if !m.ArraysClear() {
		t.Fatal("Reset left an entry number or a key reference behind")
	}
}
