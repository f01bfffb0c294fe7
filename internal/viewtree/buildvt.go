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
// debugging, e.g. "V(A)[∃H(B), Aux(A)[R(A, B)], S(B)]". View counters are
// stripped so output is stable.
func Render(n *Node) string {
	var b strings.Builder
	render(n, &b)
	return b.String()
}

func render(n *Node, b *strings.Builder) {
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
			render(c, b)
		}
		b.WriteString("]")
	}
}

// Stats summarizes a forest for diagnostics.
type Stats struct {
	Trees      int
	Views      int
	Indicators int
	LightParts int
}

// Summarize counts the forest's materialized objects.
func (f *Forest) Summarize() Stats {
	s := Stats{Indicators: len(f.Indicators), LightParts: len(f.LightParts)}
	count := func(n *Node) {
		var walk func(m *Node)
		walk = func(m *Node) {
			if m.Kind == View {
				s.Views++
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
