package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ivmeps/internal/tuple"
)

// opScript is a quick-generated sequence of relation operations.
type opScript struct {
	Ops []op
}

type op struct {
	A, B  int8 // tuple values over a small domain
	Mult  int8 // signed multiplicity delta
	Theta uint8
}

// Generate implements quick.Generator with bounded sizes.
func (opScript) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(200) + 1
	s := opScript{Ops: make([]op, n)}
	for i := range s.Ops {
		s.Ops[i] = op{
			A:     int8(r.Intn(6)),
			B:     int8(r.Intn(6)),
			Mult:  int8(r.Intn(7) - 3),
			Theta: uint8(r.Intn(5) + 1),
		}
	}
	return reflect.ValueOf(s)
}

// Property: after any op sequence, the relation agrees with a map model on
// size, multiplicities, index counts, and linked-list
// enumeration contents.
func TestQuickRelationModel(t *testing.T) {
	f := func(s opScript) bool {
		r := New("R", tuple.NewSchema("A", "B"))
		ixA := r.EnsureIndex(tuple.NewSchema("A"))
		ixB := r.EnsureIndex(tuple.NewSchema("B"))
		model := map[[2]int64]int64{}
		for _, o := range s.Ops {
			tup := tuple.Tuple{int64(o.A), int64(o.B)}
			key := [2]int64{int64(o.A), int64(o.B)}
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
			if r.Mult(tuple.Tuple{k[0], k[1]}) != m {
				return false
			}
			countA[k[0]]++
			countB[k[1]]++
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
		// Enumeration yields exactly the model's tuples.
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
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Rebuild always establishes the strict partition conditions, and
// the loose conditions subsume the strict ones.
func TestQuickPartitionStrictAfterRebuild(t *testing.T) {
	f := func(s opScript) bool {
		r := New("R", tuple.NewSchema("A", "B"))
		for _, o := range s.Ops {
			if o.Mult <= 0 {
				continue
			}
			r.MustAdd(tuple.Tuple{int64(o.A), int64(o.B)}, int64(o.Mult))
		}
		p := NewPartition(r, tuple.NewSchema("B"), "R_B")
		for _, o := range s.Ops {
			theta := float64(o.Theta)
			p.Rebuild(theta)
			if !p.CheckStrict(theta) || !p.CheckLoose(theta) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
