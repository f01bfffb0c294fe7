package relation

import (
	"math"

	"ivmeps/internal/tuple"
)

// Partition tracks the light part R^S of a relation R partitioned on a key
// schema S with a threshold θ (Definition 11). The heavy part is implicit:
// H = R − R^S. The partition starts strict (light iff degree < θ) and is
// kept loose under updates — light degrees stay < 3⁄2·θ and heavy degrees
// stay ≥ ½·θ — until the engine performs minor or major rebalancing
// (Section 6.2).
//
// Partition does not watch R by itself; the maintenance procedures of
// internal/core call its methods as they process updates, mirroring
// Figures 19–22.
type Partition struct {
	rel   *Relation
	key   tuple.Schema
	light *Relation // R^S, the materialized light part
	proj  tuple.Projection
	relIx *Index // index of R on S (degrees of all tuples)
	ltIx  *Index // index of R^S on S
}

// NewPartition creates a partition of rel on key with an empty light part.
// Call Rebuild to populate it strictly for a threshold.
func NewPartition(rel *Relation, key tuple.Schema, lightName string) *Partition {
	p := &Partition{
		rel:   rel,
		key:   key.Clone(),
		light: New(lightName, rel.Schema()),
		proj:  tuple.MustProjection(rel.Schema(), key),
	}
	p.relIx = rel.EnsureIndex(key)
	p.ltIx = p.light.EnsureIndex(key)
	return p
}

// Relation returns the partitioned base relation R.
func (p *Partition) Relation() *Relation { return p.rel }

// Light returns the materialized light part R^S.
func (p *Partition) Light() *Relation { return p.light }

// Key returns the partition key schema S.
func (p *Partition) Key() tuple.Schema { return p.key }

// AppendPartKey appends the partition key of t to dst and returns dst; with a
// reused scratch buffer it does not allocate.
func (p *Partition) AppendPartKey(dst, t tuple.Tuple) tuple.Tuple { return p.proj.AppendTo(dst, t) }

// Degree returns |σ_{S=key}R|, the degree of key in the full relation.
func (p *Partition) Degree(key tuple.Tuple) int { return p.relIx.Count(key) }

// LightDegree returns |σ_{S=key}R^S|.
func (p *Partition) LightDegree(key tuple.Tuple) int { return p.ltIx.Count(key) }

// IsLight reports whether key currently belongs to the light part's domain.
func (p *Partition) IsLight(key tuple.Tuple) bool { return p.ltIx.Has(key) }

// Rebuild strictly repartitions: the light part becomes exactly the tuples
// whose key degree in R is < θ (Definition 11, strict conditions). This is
// the per-relation step of MajorRebalancing (Figure 20, line 3). It is a
// bulk fill of the exact count — the sizes of R's buckets below θ — and
// reads each entry's degree off its bucket, hashing no key; the light part
// is what MustAdd of its rows in R's insertion order would leave.
func (p *Partition) Rebuild(theta float64) {
	ix := p.relIx.s
	n := 0
	for _, b := range ix.buckets { // a freed bucket counts 0
		if float64(b.count) < theta {
			n += int(b.count)
		}
	}
	p.light.Clear()
	p.light.Reserve(n)
	for id := p.rel.First(); id != End; id = p.rel.Next(id) {
		if float64(ix.buckets[ix.of[id]].count) < theta {
			p.light.Append(p.rel.At(id))
		}
	}
	p.light.Seal(1)
}

// CheckStrict verifies the strict partition conditions for threshold θ:
// every key present in the light part has full degree < θ, and every key of
// R absent from the light part has degree ≥ θ. Used by tests.
func (p *Partition) CheckStrict(theta float64) bool {
	ok := true
	p.relIx.ForEachKey(func(key tuple.Tuple, count int) {
		if p.ltIx.Has(key) {
			if float64(p.ltIx.Count(key)) >= theta || p.ltIx.Count(key) != count {
				ok = false
			}
		} else if float64(count) < theta {
			ok = false
		}
	})
	return ok
}

// CheckLoose verifies the loose conditions of Definition 11 for threshold
// θ: light keys have light-part degree < 3⁄2·θ and heavy keys (keys of R not
// in the light part) have degree ≥ ½·θ. Used by tests and assertions.
func (p *Partition) CheckLoose(theta float64) bool {
	ok := true
	p.relIx.ForEachKey(func(key tuple.Tuple, count int) {
		if p.ltIx.Has(key) {
			if float64(p.ltIx.Count(key)) >= 1.5*theta {
				ok = false
			}
		} else if float64(count) < 0.5*theta {
			ok = false
		}
	})
	return ok
}

// Threshold computes θ = M^ε.
func Threshold(m int, eps float64) float64 {
	if m < 1 {
		m = 1
	}
	return math.Pow(float64(m), eps)
}
