package core

import (
	"math"
	"math/rand"
	"testing"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// maxOpsPerTuple enumerates up to limit tuples and returns the largest
// per-tuple operation count (cursor advances + lookups). Operation counts
// are deterministic for a fixed workload, unlike wall time.
func maxOpsPerTuple(e *Engine, limit int) int64 {
	it := e.Result()
	defer it.Close()
	var maxOps int64
	last := e.Work()
	n := 0
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
		now := e.Work()
		if d := now - last; d > maxOps {
			maxOps = d
		}
		last = now
		n++
		if limit > 0 && n >= limit {
			break
		}
	}
	return maxOps
}

// zipfTwoPath builds a deterministic skewed instance.
func zipfTwoPath(seed int64, n int) naive.Database {
	rng := rand.New(rand.NewSource(seed))
	db := naive.Database{
		"R": relation.New("R", tuple.NewSchema("A", "B")),
		"S": relation.New("S", tuple.NewSchema("B", "C")),
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(n))
	for db["R"].Size() < n {
		db["R"].Set(tuple.Tuple{rng.Int63n(int64(n)), int64(z.Uint64())}, 1)
	}
	for db["S"].Size() < n {
		db["S"].Set(tuple.Tuple{int64(z.Uint64()), rng.Int63n(int64(n))}, 1)
	}
	return db
}

// TestDelayBoundScaling checks Proposition 22's O(N^(1−ε)) delay as a
// scaling INVARIANT in operation counts: growing N by a factor g must not
// grow the worst per-tuple operation count by more than ~g^(1−ε) (with a
// generous constant for amortized Union drains).
func TestDelayBoundScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	const n1, n2 = 1000, 8000 // growth factor 8
	const slack = 6.0
	for _, eps := range []float64{0.5, 1} {
		var ops [2]int64
		for i, n := range []int{n1, n2} {
			e, err := New(q, Options{Mode: viewtree.Static, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if err := Preprocess(e, zipfTwoPath(77, n)); err != nil {
				t.Fatal(err)
			}
			ops[i] = maxOpsPerTuple(e, 4000)
		}
		allowed := math.Pow(float64(n2)/float64(n1), 1-eps) * slack
		ratio := float64(ops[1]) / float64(ops[0])
		t.Logf("eps=%v: max ops/tuple %d -> %d (ratio %.2f, allowed %.2f)", eps, ops[0], ops[1], ratio, allowed)
		if ratio > allowed {
			t.Errorf("eps=%v: delay grew faster than O(N^(1-ε)): ratio %.2f > %.2f", eps, ratio, allowed)
		}
	}
	// At ε=1 the result is fully materialized: delay must be exactly
	// constant in ops.
	e1, _ := New(q, Options{Mode: viewtree.Static, Epsilon: 1})
	if err := Preprocess(e1, zipfTwoPath(77, 1000)); err != nil {
		t.Fatal(err)
	}
	e2, _ := New(q, Options{Mode: viewtree.Static, Epsilon: 1})
	if err := Preprocess(e2, zipfTwoPath(77, 4000)); err != nil {
		t.Fatal(err)
	}
	o1, o2 := maxOpsPerTuple(e1, 4000), maxOpsPerTuple(e2, 4000)
	if o2 > 4*o1 {
		t.Errorf("eps=1 delay not constant: %d -> %d ops/tuple", o1, o2)
	}
}

// TestFreeConnexConstantDelayOps: free-connex queries enumerate with a
// constant number of operations per tuple at any size (Figure 4's O(1)
// rows), exactly.
func TestFreeConnexConstantDelayOps(t *testing.T) {
	q := query.MustParse("Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)")
	var per [2]int64
	for i, n := range []int{1000, 8000} {
		rng := rand.New(rand.NewSource(55))
		db := naive.Database{
			"R": relation.New("R", tuple.NewSchema("A", "B", "C")),
			"S": relation.New("S", tuple.NewSchema("A", "B", "D")),
			"T": relation.New("T", tuple.NewSchema("A", "E")),
		}
		keys := int64(n / 4)
		for db["R"].Size() < n {
			db["R"].Set(tuple.Tuple{rng.Int63n(keys), rng.Int63n(keys), rng.Int63n(int64(n))}, 1)
		}
		for db["S"].Size() < n {
			db["S"].Set(tuple.Tuple{rng.Int63n(keys), rng.Int63n(keys), rng.Int63n(int64(n))}, 1)
		}
		for db["T"].Size() < n {
			db["T"].Set(tuple.Tuple{rng.Int63n(keys), rng.Int63n(int64(n))}, 1)
		}
		e, err := New(q, Options{Mode: viewtree.Static, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := Preprocess(e, db); err != nil {
			t.Fatal(err)
		}
		per[i] = maxOpsPerTuple(e, 3000)
	}
	t.Logf("free-connex max ops/tuple: %d and %d", per[0], per[1])
	if per[1] > 2*per[0]+4 {
		t.Errorf("free-connex delay not constant: %d -> %d ops/tuple", per[0], per[1])
	}
}

// TestPartitionFreeConstantDelayOps holds the star, whose forest has no
// partition and no indicator (Explain prints delay O(1) for it), to a worst
// per-tuple operation count of a full pass that stays flat while N grows
// 4× over a skewed join key, at ε = ½ where the class formula allows
// N^(1−ε).
func TestPartitionFreeConstantDelayOps(t *testing.T) {
	q := query.MustParse("Q(A, B, C) = R(A, B), S(A, C)")
	var per [2]int64
	for i, n := range []int{1000, 4000} {
		rng := rand.New(rand.NewSource(56))
		z := rand.NewZipf(rng, 1.2, 1, uint64(n))
		db := naive.Database{
			"R": relation.New("R", tuple.NewSchema("A", "B")),
			"S": relation.New("S", tuple.NewSchema("A", "C")),
		}
		for db["R"].Size() < n {
			db["R"].Set(tuple.Tuple{int64(z.Uint64()), rng.Int63n(int64(n))}, 1)
		}
		for db["S"].Size() < n {
			db["S"].Set(tuple.Tuple{int64(z.Uint64()), rng.Int63n(int64(n))}, 1)
		}
		e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := Preprocess(e, db); err != nil {
			t.Fatal(err)
		}
		per[i] = maxOpsPerTuple(e, 0)
	}
	t.Logf("star max ops/tuple: %d at N = 2 000, %d at N = 8 000", per[0], per[1])
	if per[1] > per[0] {
		t.Errorf("star delay not constant: %d -> %d ops/tuple", per[0], per[1])
	}
}
