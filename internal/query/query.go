// Package query models conjunctive queries and implements the paper's
// query-class theory: hierarchical, q-hierarchical, α-acyclic, free-connex,
// and δi-hierarchical classification, plus the static width w and dynamic
// width δ measures (Definitions 1, 5, 15, 16 and Appendix B).
package query

import (
	"fmt"
	"sort"
	"strings"

	"ivmeps/internal/tuple"
)

// Atom is one query atom R(Y): a relation symbol applied to a schema.
type Atom struct {
	Rel  string
	Vars tuple.Schema
}

// String renders the atom as "R(A, B)".
func (a Atom) String() string { return a.Rel + a.Vars.String() }

// Query is a conjunctive query Q(F) = R1(X1), ..., Rn(Xn).
type Query struct {
	Name  string
	Free  tuple.Schema
	Atoms []Atom
}

// Validate checks structural well-formedness: at least one atom, free
// variables drawn from the body, valid schemas, one arity per relation
// symbol, and at least one atom with a non-empty schema (the paper's
// standing assumption, footnote 1).
func (q *Query) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("query %s: no atoms", q.Name)
	}
	if err := q.Free.Validate(); err != nil {
		return err
	}
	vars := q.Vars()
	nonEmpty := false
	arity := map[string]int{}
	for _, a := range q.Atoms {
		if err := a.Vars.Validate(); err != nil {
			return fmt.Errorf("atom %s: %w", a, err)
		}
		if k, ok := arity[a.Rel]; ok && k != len(a.Vars) {
			return fmt.Errorf("atom %s: relation %s has arity %d in an earlier atom", a, a.Rel, k)
		}
		arity[a.Rel] = len(a.Vars)
		if len(a.Vars) > 0 {
			nonEmpty = true
		}
	}
	if !nonEmpty {
		return fmt.Errorf("query %s: all atoms have empty schemas", q.Name)
	}
	for _, v := range q.Free {
		if !vars.Contains(v) {
			return fmt.Errorf("query %s: free variable %s does not occur in the body", q.Name, v)
		}
	}
	return nil
}

// Vars returns vars(Q): all variables of the body, in first-occurrence
// order across atoms.
func (q *Query) Vars() tuple.Schema {
	var out tuple.Schema
	for _, a := range q.Atoms {
		out = out.Union(a.Vars)
	}
	return out
}

// Bound returns bound(Q) = vars(Q) − free(Q).
func (q *Query) Bound() tuple.Schema { return q.Vars().Minus(q.Free) }

// IsFree reports whether v is a free variable.
func (q *Query) IsFree(v tuple.Variable) bool { return q.Free.Contains(v) }

// AtomsOf returns the indices into q.Atoms of the atoms containing v
// (the paper's atoms(X)).
func (q *Query) AtomsOf(v tuple.Variable) []int {
	var out []int
	for i, a := range q.Atoms {
		if a.Vars.Contains(v) {
			out = append(out, i)
		}
	}
	return out
}

// AtomSet returns atoms(v) as a bitmask over atom indices; bit i is set iff
// atom i contains v. Queries are limited to 64 atoms, far beyond anything
// practical.
func (q *Query) AtomSet(v tuple.Variable) uint64 {
	if len(q.Atoms) > 64 {
		panic("query: more than 64 atoms")
	}
	var m uint64
	for i, a := range q.Atoms {
		if a.Vars.Contains(v) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// VarsOfAtoms returns vars(atoms(X)): every variable occurring in an atom
// that contains v.
func (q *Query) VarsOfAtoms(v tuple.Variable) tuple.Schema {
	var out tuple.Schema
	for _, a := range q.Atoms {
		if a.Vars.Contains(v) {
			out = out.Union(a.Vars)
		}
	}
	return out
}

// FreeOfAtoms returns free(atoms(X)): the free variables occurring in atoms
// of v.
func (q *Query) FreeOfAtoms(v tuple.Variable) tuple.Schema {
	return q.VarsOfAtoms(v).Intersect(q.Free)
}

// Depends reports whether two variables co-occur in some atom.
func (q *Query) Depends(a, b tuple.Variable) bool {
	for _, at := range q.Atoms {
		if at.Vars.Contains(a) && at.Vars.Contains(b) {
			return true
		}
	}
	return false
}

// HasRepeatedSymbols reports whether a relation symbol occurs in more than
// one atom (footnote 2 of the paper: updates to such relations are modeled
// as a sequence of per-occurrence updates).
func (q *Query) HasRepeatedSymbols() bool {
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		if seen[a.Rel] {
			return true
		}
		seen[a.Rel] = true
	}
	return false
}

// RelationNames returns the distinct relation symbols in occurrence order.
func (q *Query) RelationNames() []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	}
	return out
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	out := &Query{Name: q.Name, Free: q.Free.Clone()}
	for _, a := range q.Atoms {
		out.Atoms = append(out.Atoms, Atom{Rel: a.Rel, Vars: a.Vars.Clone()})
	}
	return out
}

// String renders the query as "Q(F) = R(A, B), S(B, C)".
func (q *Query) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	name := q.Name
	if name == "" {
		name = "Q"
	}
	return name + q.Free.String() + " = " + strings.Join(parts, ", ")
}

// ConnectedComponents splits the query into its connected components:
// atoms are connected if they share a variable. Each component keeps the
// free variables it contains. The query result is the Cartesian product of
// the component results (Section 5). Components are returned in order of
// their first atom.
func (q *Query) ConnectedComponents() []*Query {
	n := len(q.Atoms)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, v := range q.Vars() {
		idx := q.AtomsOf(v)
		for i := 1; i < len(idx); i++ {
			union(idx[0], idx[i])
		}
	}
	groups := map[int][]int{}
	var order []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], i)
	}
	sort.Slice(order, func(i, j int) bool { return groups[order[i]][0] < groups[order[j]][0] })
	out := make([]*Query, 0, len(order))
	for ci, r := range order {
		sub := &Query{Name: fmt.Sprintf("%s_c%d", q.Name, ci)}
		for _, i := range groups[r] {
			sub.Atoms = append(sub.Atoms, Atom{Rel: q.Atoms[i].Rel, Vars: q.Atoms[i].Vars.Clone()})
		}
		sub.Free = q.Free.Intersect(sub.Vars())
		out = append(out, sub)
	}
	return out
}
