package query

import (
	"math/bits"

	"ivmeps/internal/tuple"
)

// IsHierarchical reports whether the query is hierarchical (Definition 1):
// for any two variables, their sets of atoms are either disjoint or one is
// contained in the other.
func (q *Query) IsHierarchical() bool {
	vars := q.Vars()
	sets := make([]uint64, len(vars))
	for i, v := range vars {
		sets[i] = q.AtomSet(v)
	}
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			a, b := sets[i], sets[j]
			inter := a & b
			if inter != 0 && inter != a && inter != b {
				return false
			}
		}
	}
	return true
}

// IsQHierarchical reports whether the query is q-hierarchical: it is
// hierarchical, and for every free variable A, if some variable B has
// atoms(A) ⊂ atoms(B), then B is free (Section 3, "Queries").
func (q *Query) IsQHierarchical() bool {
	if !q.IsHierarchical() {
		return false
	}
	vars := q.Vars()
	for _, a := range q.Free {
		sa := q.AtomSet(a)
		for _, b := range vars {
			if b == a || q.IsFree(b) {
				continue
			}
			sb := q.AtomSet(b)
			if sa&sb == sa && sa != sb { // atoms(A) ⊂ atoms(B), B bound
				return false
			}
		}
	}
	return true
}

// IsAlphaAcyclic reports whether the query's hypergraph is α-acyclic,
// decided by GYO reduction: repeatedly (a) remove variables that occur in
// at most one atom, and (b) remove atoms whose variable set is contained in
// another atom's; the query is α-acyclic iff this empties the hypergraph.
func (q *Query) IsAlphaAcyclic() bool {
	edges := make([]map[tuple.Variable]bool, 0, len(q.Atoms))
	for _, a := range q.Atoms {
		e := make(map[tuple.Variable]bool, len(a.Vars))
		for _, v := range a.Vars {
			e[v] = true
		}
		edges = append(edges, e)
	}
	return gyoReduces(edges)
}

func gyoReduces(edges []map[tuple.Variable]bool) bool {
	for {
		changed := false
		// (a) Remove isolated variables (occurring in ≤ 1 edge).
		occ := map[tuple.Variable]int{}
		for _, e := range edges {
			for v := range e {
				occ[v]++
			}
		}
		for _, e := range edges {
			for v := range e {
				if occ[v] <= 1 {
					delete(e, v)
					changed = true
				}
			}
		}
		// (b) Remove edges contained in another edge (including empties
		// and duplicates).
		keep := edges[:0]
		for i, e := range edges {
			contained := len(e) == 0 && len(edges) > 1
			if !contained {
				for j, f := range edges {
					if i == j {
						continue
					}
					if subsetOf(e, f) && (len(e) < len(f) || i > j) {
						contained = true
						break
					}
				}
			}
			if contained {
				changed = true
			} else {
				keep = append(keep, e)
			}
		}
		edges = keep
		if len(edges) <= 1 {
			return true
		}
		if !changed {
			return false
		}
	}
}

func subsetOf(a, b map[tuple.Variable]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// IsFreeConnex reports whether the query is free-connex: α-acyclic and
// still α-acyclic after adding a head atom over the free variables
// (Section 3, citing [14]).
func (q *Query) IsFreeConnex() bool {
	if !q.IsAlphaAcyclic() {
		return false
	}
	ext := q.Clone()
	ext.Atoms = append(ext.Atoms, Atom{Rel: "__head", Vars: q.Free.Clone()})
	return ext.IsAlphaAcyclic()
}

// MinEdgeCover returns the integral edge cover number ρ(F): the minimum
// number of atoms whose schemas jointly contain every variable of F. It
// returns 0 for empty F and -1 if F cannot be covered (some variable occurs
// in no atom). For hierarchical queries ρ = ρ* (Lemma 30), so this is also
// the fractional edge cover number used by the width measures.
//
// The computation is exact: breadth-first search over bitmasks of still-
// uncovered variables. F is limited to 30 variables.
func (q *Query) MinEdgeCover(f tuple.Schema) int {
	if len(f) == 0 {
		return 0
	}
	if len(f) > 30 {
		panic("query: edge cover over more than 30 variables")
	}
	full := (1 << uint(len(f))) - 1
	// Per-atom coverage masks, deduplicated.
	masksSeen := map[int]bool{}
	var atomMasks []int
	for _, a := range q.Atoms {
		m := 0
		for i, v := range f {
			if a.Vars.Contains(v) {
				m |= 1 << uint(i)
			}
		}
		if m != 0 && !masksSeen[m] {
			masksSeen[m] = true
			atomMasks = append(atomMasks, m)
		}
	}
	covered := make([]int8, full+1)
	for i := range covered {
		covered[i] = -1
	}
	covered[0] = 0
	frontier := []int{0}
	for steps := int8(1); len(frontier) > 0; steps++ {
		var next []int
		for _, cur := range frontier {
			for _, m := range atomMasks {
				nm := cur | m
				if covered[nm] == -1 {
					if nm == full {
						return int(steps)
					}
					covered[nm] = steps
					next = append(next, nm)
				}
			}
		}
		frontier = next
	}
	return -1
}

// StaticWidth returns the static width w(Q) of a hierarchical query
// (Definition 15). For hierarchical queries the minimum over free-top
// variable orders is attained by the free-top transform of the canonical
// order (Appendix B.1–B.3), which reduces to
//
//	w(Q) = max over connected components of
//	       max(1, max over bound X of ρ({X} ∪ free(atoms(X))))
//
// because in any free-top order every free variable of atoms(X) must be an
// ancestor of a bound X and depends on it (the lower-bound argument of
// Lemma 36 / inequality (19)), while the free-top transform achieves
// exactly these cover numbers. Panics if the query is not hierarchical.
func (q *Query) StaticWidth() int {
	q.mustHierarchical()
	w := 1
	for _, x := range q.Bound() {
		target := tuple.Schema{x}.Union(q.FreeOfAtoms(x))
		if c := q.MinEdgeCover(target); c > w {
			w = c
		}
	}
	return w
}

// DynamicWidth returns the dynamic width δ(Q) of a hierarchical query
// (Definition 16), computed via the δi-hierarchical characterization
// (Definition 5 and Proposition 8):
//
//	δ(Q) = max over bound X and atoms R(Y) ∈ atoms(X) of
//	       ρ(free(atoms(X)) − Y)
//
// Panics if the query is not hierarchical.
func (q *Query) DynamicWidth() int {
	q.mustHierarchical()
	d := 0
	for _, x := range q.Bound() {
		freeOfX := q.FreeOfAtoms(x)
		for _, i := range q.AtomsOf(x) {
			rest := freeOfX.Minus(q.Atoms[i].Vars)
			if c := q.MinEdgeCover(rest); c > d {
				d = c
			}
		}
	}
	return d
}

func (q *Query) mustHierarchical() {
	if !q.IsHierarchical() {
		panic("query: width measures require a hierarchical query: " + q.String())
	}
}

// Class summarizes the classification of a query.
type Class struct {
	Hierarchical   bool
	QHierarchical  bool
	AlphaAcyclic   bool
	FreeConnex     bool
	StaticWidth    int // 0 if not hierarchical
	DynamicWidth   int // 0 if not hierarchical; equals the δi rank
	RepeatedAtoms  bool
	ConnectedComps int
}

// Classify computes the full classification of q.
func Classify(q *Query) Class {
	c := Class{
		Hierarchical:   q.IsHierarchical(),
		AlphaAcyclic:   q.IsAlphaAcyclic(),
		RepeatedAtoms:  q.HasRepeatedSymbols(),
		ConnectedComps: len(q.ConnectedComponents()),
	}
	c.FreeConnex = c.AlphaAcyclic && q.IsFreeConnex()
	if c.Hierarchical {
		c.QHierarchical = q.IsQHierarchical()
		c.StaticWidth = q.StaticWidth()
		c.DynamicWidth = q.DynamicWidth()
	}
	return c
}

// popcount is exposed for tests of bitmask helpers.
func popcount(x uint64) int { return bits.OnesCount64(x) }
