package tuple

import (
	"math/bits"
	"sync/atomic"
)

// Hashing for unencoded tuples. The open-addressing tables of
// internal/relation (its relations, indexes and pooled keyed sets) key
// directly on Tuple values: a probe hashes the tuple's uint64 values with a
// wyhash-style multiply-fold mix and compares candidate tuples value by
// value, so no per-probe key string is ever materialized. Each table carries
// its own seed (NewSeed), so bucket distributions are independent across
// tables; seeds are deliberately deterministic per process (creation-order
// counter), which keeps test failures reproducible but means this is not a
// hash-flooding defense.

const (
	hashK0 = 0xa0761d6478bd642f
	hashK1 = 0xe7037ed1a0b428db
	hashK2 = 0x8ebc6af09c88c6e3
)

// hashMix folds the 128-bit product of a and b to 64 bits.
func hashMix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Hash returns the seeded hash of t. Equal tuples hash equal under the same
// seed; Hash(seed, t) == HashPrefix(seed, t, len(t)).
func Hash(seed uint64, t Tuple) uint64 { return HashPrefix(seed, t, len(t)) }

// HashPrefix returns the seeded hash of t[:n]. It lets callers hash a key
// prefix of a scratch buffer without reslicing.
func HashPrefix(seed uint64, t Tuple, n int) uint64 {
	h := seed ^ hashK0
	for i := 0; i < n; i++ {
		h = hashMix(h^uint64(t[i]), hashK1)
	}
	return hashMix(h^uint64(n), hashK2)
}

var seedState atomic.Uint64

// NewSeed returns a fresh table seed. Seeds are distinct per call
// (splitmix64 over a process-wide counter) and deterministic within a
// process, which keeps test failures reproducible.
func NewSeed() uint64 {
	x := seedState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}
