package tuple

import "testing"

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
