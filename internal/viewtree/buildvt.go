package viewtree

import (
	"fmt"
	"strings"

	"ivmeps/internal/query"
	"ivmeps/internal/vorder"
)

// BuildVTOnly constructs one BuildVT view tree per connected component
// (Section 4.1, Figure 6) without any skew-aware partitioning. For
// free-connex queries in static mode and δ0-hierarchical queries in dynamic
// mode this is everything τ would build; for harder queries it is the
// structure used by the classical view-maintenance baselines (DynYannakakis
// / F-IVM style): enumeration may no longer have O(N^(1-ε)) delay and
// updates may cost up to O(N) per view, which is exactly what the paper's
// Figure 2 landscape attributes to prior approaches.
func BuildVTOnly(q *query.Query, mode Mode) (*Forest, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ord, err := vorder.Canonical(q)
	if err != nil {
		return nil, err
	}
	ord.SortChildren()
	b := &builder{
		q:      q,
		mode:   mode,
		forest: &Forest{Q: q, Mode: mode, Order: ord, LightParts: map[LightPartID]*LightPart{}},
	}
	for _, root := range ord.Roots {
		comp := &Component{Root: root, Query: b.residualQuery(root, nil)}
		var f = b.fx(root)
		if root.Atom != nil {
			f = nil
		}
		tree := b.buildVT("V", root, f, nil)
		b.setParents(tree, nil)
		comp.Trees = []*Node{tree}
		b.forest.Components = append(b.forest.Components, comp)
	}
	b.forest.number()
	return b.forest, nil
}

// Render prints a view tree in a compact one-line form for tests and
// debugging, e.g. "V(A)[∃H{B}, V(A)[R(A, B)], S(B)]". A view that repeats
// an earlier one of the forest prints as "=Name", the name of its class's
// canonical node, and a child read through ∃ carries the mark; other views
// print without their names and counters, so the output is stable.
func Render(n *Node) string {
	var b strings.Builder
	var abbreviated func(c *Node)
	abbreviated = func(c *Node) {
		if c.Canon != c {
			fmt.Fprintf(&b, "=%s", c.Canon.Name)
			return
		}
		render(c, &b, abbreviated)
	}
	abbreviated(n)
	return b.String()
}

// render writes n, leaving what stands for each child of a view to child:
// Render abbreviates there, number puts in the child's own signature.
func render(n *Node, b *strings.Builder, child func(c *Node)) {
	switch n.Kind {
	case Atom:
		fmt.Fprintf(b, "%s%s", n.Rel, n.Schema)
	case LightAtom:
		fmt.Fprintf(b, "%s^{%s}%s", n.Rel, joinVars(n.Keys), n.Schema)
	case IndicatorRef:
		fmt.Fprintf(b, "∃H{%s}", joinVars(n.Keys))
	case View:
		fmt.Fprintf(b, "V%s[", n.Schema)
		for i, c := range n.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			if c.Exists {
				b.WriteString("∃")
			}
			child(c)
		}
		b.WriteString("]")
	}
}

// Stats summarizes a forest for diagnostics.
type Stats struct {
	Trees         int
	Views         int // view nodes
	DistinctViews int // structural classes of view nodes: materialized views
	Indicators    int
	LightParts    int
}

// Summarize counts the forest's materialized objects.
func (f *Forest) Summarize() Stats {
	s := Stats{Indicators: len(f.Indicators), LightParts: len(f.LightParts)}
	count := func(n *Node) {
		var walk func(m *Node)
		walk = func(m *Node) {
			if m.Kind == View {
				s.Views++
				if m.Canon == m {
					s.DistinctViews++
				}
			}
			for _, c := range m.Children {
				walk(c)
			}
		}
		walk(n)
	}
	for _, t := range f.Trees() {
		s.Trees++
		count(t)
	}
	for _, ind := range f.Indicators {
		count(ind.All)
		count(ind.L)
	}
	return s
}
