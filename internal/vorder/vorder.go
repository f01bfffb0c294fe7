// Package vorder implements variable orders for conjunctive queries
// (Definition 13): canonical variable orders of hierarchical queries, the
// free-top transform of Appendix B.1, dependency sets, and the static and
// dynamic width of an order (Definitions 15 and 16) evaluated literally.
//
// The width evaluation here is deliberately independent of the closed-form
// width computation in internal/query; tests cross-check the two.
package vorder

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
)

// Node is one node of a variable order: either a variable (Var != "") or an
// atom leaf (Atom != nil).
type Node struct {
	Var      tuple.Variable
	Atom     *query.Atom
	Children []*Node
	Parent   *Node
}

// IsVar reports whether n is a variable node.
func (n *Node) IsVar() bool { return n.Atom == nil }

// Order is a variable order (a forest) for a query.
type Order struct {
	Q     *query.Query
	Roots []*Node
}

// Anc returns anc(n): the variables on the path from the root to n,
// excluding n itself, in top-down order.
func (n *Node) Anc() tuple.Schema {
	var rev tuple.Schema
	for p := n.Parent; p != nil; p = p.Parent {
		rev = append(rev, p.Var)
	}
	out := make(tuple.Schema, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// HasSibling reports whether n has at least one sibling (the paper's
// has_sibling flag).
func (n *Node) HasSibling() bool {
	return n.Parent != nil && len(n.Parent.Children) > 1
}

// SubVars returns the variables in the subtree rooted at n (including n if
// it is a variable), in pre-order.
func (n *Node) SubVars() tuple.Schema {
	var out tuple.Schema
	n.walk(func(m *Node) {
		if m.IsVar() {
			out = append(out, m.Var)
		}
	})
	return out
}

// SubAtoms returns the atoms at the leaves of the subtree rooted at n, in
// pre-order.
func (n *Node) SubAtoms() []*query.Atom {
	var out []*query.Atom
	n.walk(func(m *Node) {
		if m.Atom != nil {
			out = append(out, m.Atom)
		}
	})
	return out
}

func (n *Node) walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.walk(fn)
	}
}

// Walk visits every node of the order in pre-order.
func (o *Order) Walk(fn func(*Node)) {
	for _, r := range o.Roots {
		r.walk(fn)
	}
}

// VarNode returns the node of variable v, or nil.
func (o *Order) VarNode(v tuple.Variable) *Node {
	var found *Node
	o.Walk(func(n *Node) {
		if n.IsVar() && n.Var == v {
			found = n
		}
	})
	return found
}

// Clone deep-copies the order (atoms are copied too).
func (o *Order) Clone() *Order {
	out := &Order{Q: o.Q}
	for _, r := range o.Roots {
		out.Roots = append(out.Roots, cloneNode(r, nil))
	}
	return out
}

func cloneNode(n *Node, parent *Node) *Node {
	c := &Node{Var: n.Var, Parent: parent}
	if n.Atom != nil {
		a := query.Atom{Rel: n.Atom.Rel, Vars: n.Atom.Vars.Clone()}
		c.Atom = &a
	}
	for _, ch := range n.Children {
		c.Children = append(c.Children, cloneNode(ch, c))
	}
	return c
}

// String renders the order in the paper's inline notation, e.g.
// "A - {B - {R(A, B)}; C - {S(A, C)}}".
func (o *Order) String() string {
	parts := make([]string, len(o.Roots))
	for i, r := range o.Roots {
		parts[i] = nodeString(r)
	}
	return strings.Join(parts, " | ")
}

func nodeString(n *Node) string {
	if n.Atom != nil {
		return n.Atom.String()
	}
	if len(n.Children) == 0 {
		return string(n.Var)
	}
	parts := make([]string, len(n.Children))
	for i, c := range n.Children {
		parts[i] = nodeString(c)
	}
	if len(parts) == 1 {
		return string(n.Var) + " - " + parts[0]
	}
	return string(n.Var) + " - {" + strings.Join(parts, "; ") + "}"
}

// Canonical builds the canonical variable order of a hierarchical query:
// variables are grouped by their atom sets; a group sits above another iff
// its atom set strictly contains the other's; variables sharing an atom set
// form a chain in lexicographic order; each atom hangs below its lowest
// variable (Section 3, "Variable Orders"). Returns an error if the query is
// not hierarchical.
func Canonical(q *query.Query) (*Order, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !q.IsHierarchical() {
		return nil, fmt.Errorf("vorder: query is not hierarchical: %s", q)
	}
	// Group variables by atom-set mask.
	type group struct {
		mask  uint64
		vars  tuple.Schema // lexicographically sorted chain
		first *Node        // top of chain
		last  *Node        // bottom of chain
	}
	byMask := map[uint64]*group{}
	var groups []*group
	for _, v := range q.Vars() {
		m := q.AtomSet(v)
		g, ok := byMask[m]
		if !ok {
			g = &group{mask: m}
			byMask[m] = g
			groups = append(groups, g)
		}
		g.vars = append(g.vars, v)
	}
	for _, g := range groups {
		g.vars = g.vars.Sorted()
		for _, v := range g.vars {
			n := &Node{Var: v}
			if g.first == nil {
				g.first = n
			} else {
				n.Parent = g.last
				g.last.Children = append(g.last.Children, n)
			}
			g.last = n
		}
	}
	// Deterministic group order: larger atom sets first, then by mask.
	sort.Slice(groups, func(i, j int) bool {
		ci, cj := bits.OnesCount64(groups[i].mask), bits.OnesCount64(groups[j].mask)
		if ci != cj {
			return ci > cj
		}
		return groups[i].mask < groups[j].mask
	})
	o := &Order{Q: q}
	// Attach each group under its minimal strict-superset group; in a
	// hierarchical query that parent is unique if it exists.
	for _, g := range groups {
		var parent *group
		for _, h := range groups {
			if h == g || h.mask == g.mask || h.mask&g.mask != g.mask {
				continue // not a strict superset
			}
			if parent == nil || bits.OnesCount64(h.mask) < bits.OnesCount64(parent.mask) {
				parent = h
			}
		}
		if parent == nil {
			o.Roots = append(o.Roots, g.first)
		} else {
			g.first.Parent = parent.last
			parent.last.Children = append(parent.last.Children, g.first)
		}
	}
	// Attach atoms below their lowest variable; nullary atoms become roots.
	for i := range q.Atoms {
		a := query.Atom{Rel: q.Atoms[i].Rel, Vars: q.Atoms[i].Vars.Clone()}
		if len(a.Vars) == 0 {
			o.Roots = append(o.Roots, &Node{Atom: &a})
			continue
		}
		// The lowest variable's group is the one with the smallest atom set
		// among the atom's variables.
		var lowest *group
		for _, v := range a.Vars {
			g := byMask[q.AtomSet(v)]
			if lowest == nil || bits.OnesCount64(g.mask) < bits.OnesCount64(lowest.mask) {
				lowest = g
			}
		}
		n := &Node{Atom: &a, Parent: lowest.last}
		lowest.last.Children = append(lowest.last.Children, n)
	}
	return o, nil
}
