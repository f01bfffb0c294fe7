package workload

import (
	"math/rand"
	"testing"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
)

func TestTwoPathSizesAndSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := TwoPath(rng, 500, 1.2)
	if db["R"].Size() != 500 || db["S"].Size() != 500 {
		t.Fatalf("sizes %d %d", db["R"].Size(), db["S"].Size())
	}
	// Zipf skew: the most frequent B value should dominate.
	ix := db["R"].EnsureIndex(tuple.NewSchema("B"))
	maxDeg := 0
	ix.ForEachKey(func(key tuple.Tuple, c int) {
		if c > maxDeg {
			maxDeg = c
		}
	})
	if maxDeg < 20 {
		t.Fatalf("max B degree %d: no heavy keys generated", maxDeg)
	}
	// Joinable: result non-empty.
	res := naive.MustEval(query.MustParse("Q(A, C) = R(A, B), S(B, C)"), db)
	if res.Size() == 0 {
		t.Fatalf("TwoPath produced empty join")
	}
}

func TestMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := Matrix(rng, 10, 1.0)
	if db["R"].Size() != 100 || db["S"].Size() != 100 {
		t.Fatalf("dense matrix sizes wrong: %d %d", db["R"].Size(), db["S"].Size())
	}
	res := naive.MustEval(query.MustParse("Q(A, C) = R(A, B), S(B, C)"), db)
	if res.Size() != 100 {
		t.Fatalf("dense product size %d, want 100", res.Size())
	}
	if res.Mult(tuple.Tuple{0, 0}) != 10 {
		t.Fatalf("dense product multiplicity %d, want 10", res.Mult(tuple.Tuple{0, 0}))
	}
	sparse := Matrix(rng, 20, 0.3)
	if sparse["R"].Size() == 0 || sparse["R"].Size() >= 400 {
		t.Fatalf("sparse matrix size %d", sparse["R"].Size())
	}
}

func TestTwoPathUnary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := TwoPathUnary(rng, 200, 1.3)
	if db["R"].Size() != 200 || db["S"].Size() != 100 {
		t.Fatalf("sizes %d %d", db["R"].Size(), db["S"].Size())
	}
	res := naive.MustEval(query.MustParse("Q(A) = R(A, B), S(B)"), db)
	if res.Size() == 0 {
		t.Fatalf("empty join")
	}
}

func TestStar19(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := Star19(rng, 150, 1.4)
	q := query.MustParse("Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)")
	for _, name := range q.RelationNames() {
		if db[name].Size() != 150 {
			t.Fatalf("%s size %d", name, db[name].Size())
		}
	}
	if naive.MustEval(q, db).Size() == 0 {
		t.Fatalf("empty join")
	}
}

func TestFreeConnex18(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := FreeConnex18(rng, 120)
	q := query.MustParse("Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)")
	if naive.MustEval(q, db).Size() == 0 {
		t.Fatalf("empty join")
	}
}

func TestBoundedDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := 4
	db := BoundedDegree(rng, 200, c)
	for _, rel := range []string{"R", "S"} {
		ix := db[rel].EnsureIndex(tuple.NewSchema("B"))
		ix.ForEachKey(func(key tuple.Tuple, deg int) {
			if deg > c {
				t.Fatalf("%s degree %d > %d", rel, deg, c)
			}
		})
	}
}

func TestUpdateStreamConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	db := TwoPath(rng, 100, 1.2)
	mirror := db.Clone()
	updates := UpdateStream(rng, q, db, 300, 0.4)
	if len(updates) != 300 {
		t.Fatalf("stream length %d", len(updates))
	}
	// Replaying the stream against the mirror never under-deletes and ends
	// in the same state as db (which UpdateStream mutated).
	for _, u := range updates {
		if mirror[u.Rel].Mult(u.Tuple)+u.Mult < 0 {
			t.Fatalf("stream under-deletes %v", u)
		}
		mirror[u.Rel].MustAdd(u.Tuple, u.Mult)
	}
	for name, r := range db {
		if r.Size() != mirror[name].Size() {
			t.Fatalf("replay diverged on %s", name)
		}
	}
}

func TestOMvInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inst := NewOMvInstance(rng, 12, 0.5)
	if inst.N != 12 || len(inst.Rounds) != 12 {
		t.Fatalf("instance shape wrong")
	}
	if inst.Matrix["R"].Size() == 0 || inst.Matrix["S"].Size() != 0 {
		t.Fatalf("matrix encoding wrong")
	}
}
