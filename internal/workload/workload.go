// Package workload generates the synthetic databases and update streams
// used by the examples and the benchmark harness. The paper is evaluated by
// complexity analysis rather than on named datasets, so the generators here
// are designed to exercise the engine's distinct code paths: heavy and
// light join keys (Zipf skew), square matrices (Example 28), the
// star-shaped 4-relation workload of Example 19, bounded-degree databases
// (Figure 4's bounded-degree row), and the OMv reduction workload of
// Appendix B.8.
package workload

import (
	"math/rand"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

// Zipf draws values in [0, n) with P(k) ∝ 1/(k+1)^s using the standard
// library's bounded Zipf generator; s must be > 1.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf creates a Zipf sampler over [0, n) with exponent s > 1.
func NewZipf(rng *rand.Rand, s float64, n uint64) *Zipf {
	return &Zipf{z: rand.NewZipf(rng, s, 1, n-1)}
}

// Draw samples one value.
func (z *Zipf) Draw() int64 { return int64(z.z.Uint64()) }

// TwoPath generates data for Q(A,C) = R(A,B), S(B,C) (Example 28): n tuples
// per relation. The join variable B is drawn from a Zipf distribution with
// the given skew (s > 1), so a handful of B-values are heavy and the rest
// form a light tail; A and C are uniform over [0, n).
func TwoPath(rng *rand.Rand, n int, skew float64) naive.Database {
	r := relation.New("R", tuple.NewSchema("A", "B"))
	s := relation.New("S", tuple.NewSchema("B", "C"))
	zb := NewZipf(rng, skew, uint64(n))
	for r.Size() < n {
		r.Set(tuple.Tuple{rng.Int63n(int64(n)), zb.Draw()}, 1)
	}
	for s.Size() < n {
		s.Set(tuple.Tuple{zb.Draw(), rng.Int63n(int64(n))}, 1)
	}
	return naive.Database{"R": r, "S": s}
}

// Matrix generates the matrix-multiplication instance of Example 28: R and
// S encode n×n Boolean matrices with density d ∈ (0, 1], so the database
// size is N ≈ 2·d·n². Every B value has degree ≈ d·n: at ε = 1/2 and
// d close to 1, all B values are heavy, which is the regime the example's
// O(N^(3/2)) preprocessing / O(N^(1/2)) delay analysis targets.
func Matrix(rng *rand.Rand, n int, density float64) naive.Database {
	r := relation.New("R", tuple.NewSchema("A", "B"))
	s := relation.New("S", tuple.NewSchema("B", "C"))
	for i := int64(0); i < int64(n); i++ {
		for j := int64(0); j < int64(n); j++ {
			if density >= 1 || rng.Float64() < density {
				r.Set(tuple.Tuple{i, j}, 1)
			}
			if density >= 1 || rng.Float64() < density {
				s.Set(tuple.Tuple{i, j}, 1)
			}
		}
	}
	return naive.Database{"R": r, "S": s}
}

// TwoPathUnary generates data for Q(A) = R(A,B), S(B) (Example 29): R has n
// tuples with Zipf-skewed B, S has n/2 uniform B values.
func TwoPathUnary(rng *rand.Rand, n int, skew float64) naive.Database {
	r := relation.New("R", tuple.NewSchema("A", "B"))
	s := relation.New("S", tuple.NewSchema("B"))
	zb := NewZipf(rng, skew, uint64(n))
	for r.Size() < n {
		r.Set(tuple.Tuple{rng.Int63n(int64(n)), zb.Draw()}, 1)
	}
	for s.Size() < n/2 {
		s.Set(tuple.Tuple{rng.Int63n(int64(n))}, 1)
	}
	return naive.Database{"R": r, "S": s}
}

// Star19 generates data for Example 19's query
//
//	Q(C,D,E,F) = R(A,B,D), S(A,B,E), T(A,C,F), U(A,C,G)
//
// with n tuples per relation. A and B are Zipf-skewed so that both the
// heavy-A and heavy-(A,B) strategies receive traffic; the free variables
// are uniform.
func Star19(rng *rand.Rand, n int, skew float64) naive.Database {
	dom := int64(n)
	za := NewZipf(rng, skew, uint64(max(2, n/4)))
	zb := NewZipf(rng, skew, uint64(max(2, n/4)))
	mk := func(name string, vars ...tuple.Variable) *relation.Relation {
		return relation.New(name, tuple.NewSchema(vars...))
	}
	r := mk("R", "A", "B", "D")
	s := mk("S", "A", "B", "E")
	t := mk("T", "A", "C", "F")
	u := mk("U", "A", "C", "G")
	for r.Size() < n {
		r.Set(tuple.Tuple{za.Draw(), zb.Draw(), rng.Int63n(dom)}, 1)
	}
	for s.Size() < n {
		s.Set(tuple.Tuple{za.Draw(), zb.Draw(), rng.Int63n(dom)}, 1)
	}
	for t.Size() < n {
		t.Set(tuple.Tuple{za.Draw(), rng.Int63n(int64(max(2, n/8))), rng.Int63n(dom)}, 1)
	}
	for u.Size() < n {
		u.Set(tuple.Tuple{za.Draw(), rng.Int63n(int64(max(2, n/8))), rng.Int63n(dom)}, 1)
	}
	return naive.Database{"R": r, "S": s, "T": t, "U": u}
}

// FreeConnex18 generates data for Example 18's free-connex query
// Q(A,D,E) = R(A,B,C), S(A,B,D), T(A,E).
func FreeConnex18(rng *rand.Rand, n int) naive.Database {
	dom := int64(n)
	keys := int64(max(2, n/4))
	r := relation.New("R", tuple.NewSchema("A", "B", "C"))
	s := relation.New("S", tuple.NewSchema("A", "B", "D"))
	t := relation.New("T", tuple.NewSchema("A", "E"))
	for r.Size() < n {
		r.Set(tuple.Tuple{rng.Int63n(keys), rng.Int63n(keys), rng.Int63n(dom)}, 1)
	}
	for s.Size() < n {
		s.Set(tuple.Tuple{rng.Int63n(keys), rng.Int63n(keys), rng.Int63n(dom)}, 1)
	}
	for t.Size() < n {
		t.Set(tuple.Tuple{rng.Int63n(keys), rng.Int63n(dom)}, 1)
	}
	return naive.Database{"R": r, "S": s, "T": t}
}

// BoundedDegree generates TwoPath data in which every B value has degree at
// most c in both relations (the bounded-degree databases of Figure 4: with
// the constant bound in place of N^ε, preprocessing is linear and delay
// constant).
func BoundedDegree(rng *rand.Rand, n, c int) naive.Database {
	r := relation.New("R", tuple.NewSchema("A", "B"))
	s := relation.New("S", tuple.NewSchema("B", "C"))
	nb := (n + c - 1) / c
	for b := 0; b < nb; b++ {
		for k := 0; k < c && r.Size() < n; k++ {
			r.Set(tuple.Tuple{rng.Int63n(int64(n)), int64(b)}, 1)
		}
		for k := 0; k < c && s.Size() < n; k++ {
			s.Set(tuple.Tuple{int64(b), rng.Int63n(int64(n))}, 1)
		}
	}
	return naive.Database{"R": r, "S": s}
}

// Update is one single-tuple update.
type Update struct {
	Rel   string
	Tuple tuple.Tuple
	Mult  int64
}

// UpdateStream produces count updates against db's relations: inserts of
// fresh random tuples and deletes of existing ones, at the given delete
// fraction. Deletes always target currently present tuples, so streams
// never trigger rejections. The stream is reproducible from rng; db is used
// only to track membership and is modified to mirror the stream.
func UpdateStream(rng *rand.Rand, q *query.Query, db naive.Database, count int, deleteFrac float64) []Update {
	names := q.RelationNames()
	var out []Update
	for len(out) < count {
		rel := names[rng.Intn(len(names))]
		r := db[rel]
		if rng.Float64() < deleteFrac && r.Size() > 0 {
			// Delete a random existing tuple: walk a few steps from the head.
			id := r.First()
			steps := rng.Intn(32)
			for i := 0; i < steps && r.Next(id) != relation.End; i++ {
				id = r.Next(id)
			}
			t, m := r.At(id)
			u := Update{Rel: rel, Tuple: t.Clone(), Mult: -m}
			r.MustAdd(u.Tuple, u.Mult)
			out = append(out, u)
			continue
		}
		schema := r.Schema()
		t := make(tuple.Tuple, len(schema))
		for j := range t {
			t[j] = rng.Int63n(int64(1 << 30))
		}
		// Bias join keys to small domains so updates hit existing keys.
		for j, v := range schema {
			if v == "B" || v == "A" {
				t[j] = rng.Int63n(int64(max(16, r.Size()/4+1)))
			}
		}
		u := Update{Rel: rel, Tuple: t, Mult: 1}
		if r.Mult(t) > 0 {
			continue
		}
		r.MustAdd(t, 1)
		out = append(out, u)
	}
	return out
}

// OMvInstance is the Online Matrix-Vector Multiplication reduction workload
// of Appendix B.8: an n×n Boolean matrix M encoded in R(A,B), and n rounds,
// each a column vector v_r encoded as updates to S(B) followed by an
// enumeration of Q(A) = R(A,B), S(B), whose result is M·v_r.
type OMvInstance struct {
	N      int
	Matrix naive.Database // R filled with M; S empty
	Rounds [][]int64      // Rounds[r] lists the B values set in round r
}

// NewOMvInstance generates a random OMv instance with matrix density d.
func NewOMvInstance(rng *rand.Rand, n int, density float64) *OMvInstance {
	r := relation.New("R", tuple.NewSchema("A", "B"))
	s := relation.New("S", tuple.NewSchema("B"))
	for i := int64(0); i < int64(n); i++ {
		for j := int64(0); j < int64(n); j++ {
			if rng.Float64() < density {
				r.Set(tuple.Tuple{i, j}, 1)
			}
		}
	}
	inst := &OMvInstance{N: n, Matrix: naive.Database{"R": r, "S": s}}
	for round := 0; round < n; round++ {
		var vec []int64
		for j := int64(0); j < int64(n); j++ {
			if rng.Float64() < density {
				vec = append(vec, j)
			}
		}
		inst.Rounds = append(inst.Rounds, vec)
	}
	return inst
}
