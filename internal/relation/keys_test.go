package relation

import (
	"math/rand"
	"testing"

	"ivmeps/internal/tuple"
)

// slotsClear reports that the probe array, to its full capacity, holds no
// slot: what Reset must leave behind.
func (k *Keys) slotsClear() bool {
	for _, s := range k.tab.slots[:cap(k.tab.slots)] {
		if s != 0 {
			return false
		}
	}
	return true
}

// has returns t's id without adding it.
func (k *Keys) has(t tuple.Tuple) (int, bool) {
	_, id, ok := k.tab.find(tuple.Hash(k.seed, t), t)
	return int(id), ok
}

func TestKeysBasic(t *testing.T) {
	var k Keys
	k.Reset(2)
	if _, ok := k.has(tuple.Tuple{1, 1}); ok {
		t.Fatal("empty set reported a key")
	}
	for i := int64(0); i < 100; i++ {
		if id, added := k.Add(tuple.Tuple{i, i % 7}); id != int(i) || !added {
			t.Fatalf("Add({%d,%d}) = %d,%v want %d,true", i, i%7, id, added, i)
		}
	}
	if k.Len() != 100 {
		t.Fatalf("Len = %d, want 100", k.Len())
	}
	for i := int64(0); i < 100; i++ {
		if id, added := k.Add(tuple.Tuple{i, i % 7}); id != int(i) || added {
			t.Fatalf("re-Add({%d,%d}) = %d,%v want %d,false", i, i%7, id, added, i)
		}
		if got := k.Key(int(i)); !got.Equal(tuple.Tuple{i, i % 7}) {
			t.Fatalf("Key(%d) = %v", i, got)
		}
	}
	if _, ok := k.has(tuple.Tuple{100, 2}); ok {
		t.Fatal("absent key reported present")
	}
	k.Reset(1)
	if k.Len() != 0 {
		t.Fatalf("Len after Reset = %d", k.Len())
	}
	if _, ok := k.has(tuple.Tuple{3}); ok {
		t.Fatal("key survived Reset")
	}
	// Reuse after Reset, at another arity.
	if id, added := k.Add(tuple.Tuple{5}); id != 0 || !added || !k.Key(0).Equal(tuple.Tuple{5}) {
		t.Fatalf("Add after Reset = %d,%v, Key(0) = %v", id, added, k.Key(0))
	}
}

// TestKeysCopiesKey: Add copies its key, so a caller may add from a scratch
// buffer it overwrites, and a Key stays what it was through later Adds —
// the arena's growth included — until the next Reset.
func TestKeysCopiesKey(t *testing.T) {
	var k Keys
	k.Reset(2)
	scratch := make(tuple.Tuple, 2)
	first := tuple.Tuple(nil)
	for i := int64(0); i < 500; i++ {
		scratch[0], scratch[1] = i, i*i
		k.Add(scratch)
		if i == 0 {
			first = k.Key(0)
		}
		scratch[0], scratch[1] = -1, -1 // clobber the scratch
	}
	if !first.Equal(tuple.Tuple{0, 0}) {
		t.Fatalf("Key(0) taken before 499 more Adds reads %v", first)
	}
	for i := int64(0); i < 500; i++ {
		if id, ok := k.has(tuple.Tuple{i, i * i}); !ok || id != int(i) {
			t.Fatalf("key {%d,%d}: got %d,%v", i, i*i, id, ok)
		}
	}
}

func TestKeysEmptyTupleKey(t *testing.T) {
	var k Keys
	k.Reset(0)
	if id, added := k.Add(nil); id != 0 || !added {
		t.Fatalf("Add(nil) = %d,%v want 0,true", id, added)
	}
	if id, added := k.Add(tuple.Tuple{}); id != 0 || added {
		t.Fatalf("Add(empty) = %d,%v want 0,false", id, added)
	}
	if k.Len() != 1 || len(k.Key(0)) != 0 {
		t.Fatalf("Len = %d, Key(0) = %v", k.Len(), k.Key(0))
	}
	k.Reset(0)
	if id, added := k.Add(tuple.Tuple{}); id != 0 || !added {
		t.Fatalf("Add(empty) after Reset = %d,%v want 0,true", id, added)
	}
}

func TestKeysSteadyStateZeroAllocs(t *testing.T) {
	var k Keys
	keys := make([]tuple.Tuple, 300)
	for i := range keys {
		keys[i] = tuple.Tuple{int64(i), int64(i % 5)}
	}
	// Warm to capacity.
	k.Reset(2)
	for _, key := range keys {
		k.Add(key)
	}
	if n := testing.AllocsPerRun(100, func() {
		k.Reset(2)
		for i, key := range keys {
			if id, added := k.Add(key); id != i || !added {
				t.Fatal("lost a key")
			}
		}
		for i, key := range keys {
			if id, added := k.Add(key); id != i || added {
				t.Fatal("lost a key")
			}
		}
	}); n != 0 {
		t.Errorf("warmed Reset+Add cycle allocates %v per run, want 0", n)
	}
}

// TestKeysResetProportional: what a use of a pooled set costs depends on
// that use, not on the largest before it. After a 100 000-key use, a 20-key
// use probes — and its Reset clears — a probe array of at most 256 slots and
// a 200-key use one of at most 512,
// Reset leaves no slot behind anywhere in the array, and through rounds of
// mixed sizes the set agrees with a built-in map.
func TestKeysResetProportional(t *testing.T) {
	var k Keys
	fill := func(n int) {
		k.Reset(2)
		for i := 0; i < n; i++ {
			k.Add(tuple.Tuple{int64(i), int64(i % 3)})
		}
	}
	fill(100000)
	if n := len(k.tab.slots); n < 100000 {
		t.Fatalf("100 000 keys in %d slots", n)
	}
	fill(20)
	if n := len(k.tab.slots); n > 256 {
		t.Fatalf("after a 100 000-key use, a 20-key use probes %d slots, want at most 256", n)
	}
	fill(100000)
	fill(200)
	if n := len(k.tab.slots); n > 512 {
		t.Fatalf("after a 100 000-key use, a 200-key use probes %d slots, want at most 512", n)
	}
	k.Reset(2)
	if !k.slotsClear() {
		t.Fatal("Reset left a slot behind")
	}

	rng := rand.New(rand.NewSource(5))
	scratch := make(tuple.Tuple, 2)
	for round := 0; round < 1000; round++ {
		size := rng.Intn(40)
		switch rng.Intn(20) {
		case 0:
			size = 2000 + rng.Intn(3000)
		case 1, 2:
			size = 100 + rng.Intn(400)
		}
		k.Reset(2)
		model, keys := map[[2]int64]int{}, []tuple.Tuple(nil)
		for i := 0; i < size; i++ {
			scratch[0], scratch[1] = rng.Int63n(int64(2*size+1)), rng.Int63n(3)
			want, present := model[[2]int64{scratch[0], scratch[1]}]
			if !present {
				want = len(model)
				model[[2]int64{scratch[0], scratch[1]}] = want
				keys = append(keys, scratch.Clone())
			}
			if id, added := k.Add(scratch); id != want || added == present {
				t.Fatalf("round %d: Add(%v) = %d, %v; the model has %d, %v", round, scratch, id, added, want, present)
			}
		}
		if k.Len() != len(model) {
			t.Fatalf("round %d: Len = %d, the model has %d", round, k.Len(), len(model))
		}
		for id, key := range keys {
			if !k.Key(id).Equal(key) {
				t.Fatalf("round %d: Key(%d) = %v; want %v", round, id, k.Key(id), key)
			}
		}
	}
	k.Reset(2)
	if !k.slotsClear() {
		t.Fatal("Reset left a slot behind")
	}
}

// FuzzKeys drives a Keys through Resets of varying arity and size against a
// map from the key's rendering to its first-add position: every Add must
// return the model's id and added flag, and every Key its tuple.
func FuzzKeys(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 5, 5, 5, 9, 1, 200, 3, 3, 1, 0, 7})
	f.Add([]byte{1, 255, 255, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		var k Keys
		for len(data) > 0 {
			// One use: an arity (0–3), a key count (scaled up so uses cross
			// the 256-slot reset bound), a value domain, then the keys'
			// values drawn from the remaining bytes, cycled.
			arity := int(data[0] % 4)
			data = data[1:]
			n, domain := 0, int64(1)
			if len(data) >= 2 {
				n, domain = int(data[0])*8, int64(data[1])+1
				data = data[2:]
			}
			k.Reset(arity)
			model := map[string]int{}
			var keys []tuple.Tuple
			key := make(tuple.Tuple, arity)
			for i := 0; i < n; i++ {
				for j := range key {
					b := int64(i * (j + 1))
					if len(data) > 0 {
						b += int64(data[(i*arity+j)%len(data)])
					}
					key[j] = b % domain
				}
				want, present := model[key.String()]
				if !present {
					want = len(keys)
					model[key.String()] = want
					keys = append(keys, key.Clone())
				}
				if id, added := k.Add(key); id != want || added == present {
					t.Fatalf("Add(%v) = %d, %v; the model has %d, %v", key, id, added, want, present)
				}
			}
			if k.Len() != len(keys) {
				t.Fatalf("Len = %d, the model has %d", k.Len(), len(keys))
			}
			for id, want := range keys {
				if !k.Key(id).Equal(want) {
					t.Fatalf("Key(%d) = %v; want %v", id, k.Key(id), want)
				}
			}
			if len(data) > 0 {
				data = data[1+int(data[0])%len(data):]
			}
		}
	})
}
