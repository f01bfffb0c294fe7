// Package viewtree constructs the materialized view trees of Section 4:
// BuildVT (Figure 6), NewVT (Figure 7), AuxView (Figure 8), the indicator
// view trees (Figure 10), and the skew-aware construction τ (Figure 11).
//
// The package builds pure structure — which views exist, their schemas, and
// how they nest. Materialization, enumeration, and maintenance live in
// internal/core.
//
// Every tree has its own nodes — copyTree copies, a node having one Parent
// and one leaf→root path — but τ's copies, the auxiliary views of Figure 8
// and the first level of the indicator trees compute the same views over and
// over. Build sorts the view nodes into structural classes (Node.Canon); a
// class is one materialized view, filled, written and stored once by
// internal/core. Inside an All or L tree a view below another view is read
// through ∃ (Node.Exists): Figure 10 asks the indicator trees for support only.
package viewtree

import (
	"fmt"
	"strings"

	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/vorder"
)

// Mode selects static or dynamic evaluation (the paper's global mode
// parameter). Dynamic mode adds the auxiliary views of Figure 8 that make
// single-tuple delta propagation constant time per view.
type Mode int

const (
	// Static builds evaluation-only trees (Section 4): no update support.
	Static Mode = iota
	// Dynamic adds the auxiliary views needed for constant-time deltas.
	Dynamic
)

// String names the mode for diagnostics.
func (m Mode) String() string {
	if m == Static {
		return "static"
	}
	return "dynamic"
}

// Kind distinguishes the node types of a view tree.
type Kind int

const (
	// Atom is a leaf referencing a base relation R(Y).
	Atom Kind = iota
	// LightAtom is a leaf referencing the light part R^keys(Y) of a base
	// relation partitioned on Keys.
	LightAtom
	// View is an inner node: the join of its children projected onto
	// Schema, with multiplicities multiplied and aggregated.
	View
	// IndicatorRef is a leaf referencing the heavy indicator ∃H of an
	// Indicator triple, with set semantics.
	IndicatorRef
)

// Node is one node of a view tree.
type Node struct {
	ID       int // dense over every node of the forest (Forest.number)
	Kind     Kind
	Name     string       // unique view name, or relation/light-part name
	Rel      string       // Atom, LightAtom: the base relation symbol
	Schema   tuple.Schema // the node's (view) schema
	Keys     tuple.Schema // LightAtom: partition key; IndicatorRef: indicator keys
	Children []*Node
	Parent   *Node
	Ind      *Indicator // IndicatorRef: the triple referenced

	// Canon is the lowest-ID node of the node's structural class: the node
	// itself, unless it is a view whose subtree repeats an earlier one — same
	// schema sequence, same children in order with the same ∃ marks, leaves
	// alike in kind, relation, keys and indicator.
	Canon *Node
	// Exists marks a view below another view of an All or L tree: its parent
	// joins its support, ∃V, not its multiplicities.
	Exists bool
}

// Indicator is a triple of indicator view trees for a bound variable's keys
// (Figure 10): All computes all keys-values of the join, L the keys-values
// of the join of light parts, and the materialized heavy indicator is
// ∃H = ∃All ⋈ ∄L, maintained by the engine (Figures 18–19).
type Indicator struct {
	Name string       // name of the materialized ∃H relation
	Keys tuple.Schema // anc(X) ∪ {X}
	All  *Node        // root of the All view tree
	L    *Node        // root of the light view tree (over light parts on Keys)
	Rels []string     // relations partitioned on Keys (the atoms below X)
	Refs []*Node      // the IndicatorRef leaves of the main trees, in ID order; never empty
}

// LightPartID identifies one light part: a relation partitioned on a key
// schema. The same relation may be partitioned on several key schemas
// (Section 2: "the same relation may be subject to partition on different
// tuples of variables").
type LightPartID struct {
	Rel string
	Key string // canonical string of the key schema
}

// LightPart returns the ID of the light part a LightAtom leaf references.
func (n *Node) LightPart() LightPartID {
	return LightPartID{Rel: n.Rel, Key: joinVars(n.Keys)}
}

// LightPart describes one light part required by the forest.
type LightPart struct {
	Rel    string
	Name   string
	Keys   tuple.Schema
	Schema tuple.Schema
}

// Component groups the view trees of one connected component of the query.
// The component's result is the union of its trees' results
// (Proposition 20); the query result is the product across components.
type Component struct {
	Query *query.Query // the component sub-query
	Root  *vorder.Node // root of the component's canonical variable order
	Trees []*Node
}

// Forest is the complete output of the construction for a query.
type Forest struct {
	Q          *query.Query
	Mode       Mode
	Order      *vorder.Order
	Components []*Component
	Indicators []*Indicator
	LightParts map[LightPartID]*LightPart
	NumNodes   int // node IDs are 0..NumNodes-1
}

// number gives every node of the finished forest its ID — the main trees in
// Trees order, then each indicator's All and L tree, each in preorder —
// collects every indicator's reference leaves, marks the ∃-children of the
// indicator trees and classes the views, by the signature render spells out.
// Equal subtrees never nest, so the first of a class to finish has its lowest ID.
func (f *Forest) number() {
	classes := map[string]*Node{}
	sigs := make(map[*Node]string)
	var walk func(n *Node, indicator bool)
	walk = func(n *Node, indicator bool) {
		n.ID = f.NumNodes
		f.NumNodes++
		n.Exists = indicator && n.Kind == View && n.Parent != nil
		if n.Kind == IndicatorRef {
			n.Ind.Refs = append(n.Ind.Refs, n)
		}
		for _, c := range n.Children {
			walk(c, indicator)
		}
		var sig strings.Builder
		render(n, &sig, func(c *Node) { sig.WriteString(sigs[c]) })
		sigs[n] = sig.String()
		n.Canon = n
		if n.Kind == View {
			if classes[sigs[n]] == nil {
				classes[sigs[n]] = n
			}
			n.Canon = classes[sigs[n]]
		}
	}
	for _, t := range f.Trees() {
		walk(t, false)
	}
	for _, ind := range f.Indicators {
		walk(ind.All, true)
		walk(ind.L, true)
	}
}

// Trees returns all view trees across components.
func (f *Forest) Trees() []*Node {
	var out []*Node
	for _, c := range f.Components {
		out = append(out, c.Trees...)
	}
	return out
}

// BuildOptions tunes the construction; the zero value is the paper's
// algorithm.
type BuildOptions struct {
	// NoAuxViews suppresses the auxiliary views of Figure 8 in dynamic
	// mode. The trees remain correct, but delta propagation joins wider
	// siblings instead of making constant-time lookups — the ablation
	// quantifying what AuxView buys (Lemma 47).
	NoAuxViews bool
}

// Build constructs the skew-aware view trees for a hierarchical query: the
// canonical variable order is computed, and τ is run on each connected
// component. Returns an error for non-hierarchical queries.
func Build(q *query.Query, mode Mode) (*Forest, error) {
	return BuildOpts(q, mode, BuildOptions{})
}

// BuildOpts is Build with construction options.
func BuildOpts(q *query.Query, mode Mode, opts BuildOptions) (*Forest, error) {
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
		opts:   opts,
		forest: &Forest{Q: q, Mode: mode, Order: ord, LightParts: map[LightPartID]*LightPart{}},
	}
	for _, root := range ord.Roots {
		comp := &Component{Root: root, Query: b.residualQuery(root, nil)}
		comp.Trees = b.tau(root)
		for _, t := range comp.Trees {
			b.setParents(t, nil)
		}
		b.forest.Components = append(b.forest.Components, comp)
	}
	b.forest.number()
	return b.forest, nil
}

type builder struct {
	q      *query.Query
	mode   Mode
	opts   BuildOptions
	forest *Forest
	seq    int
	indSeq int
}

func (b *builder) fresh(prefix string, v tuple.Variable) string {
	b.seq++
	return fmt.Sprintf("%s%s_%d", prefix, v, b.seq)
}

// keysOf returns anc(X) ∪ {X} for a variable node.
func keysOf(n *vorder.Node) tuple.Schema {
	return n.Anc().Union(tuple.Schema{n.Var})
}

// fx returns FX = anc(X) ∪ (F ∩ vars(ω_X)) with F the query's free vars;
// the free part follows the head's variable order.
func (b *builder) fx(n *vorder.Node) tuple.Schema {
	return n.Anc().Union(b.q.Free.Intersect(n.SubVars()))
}

// residualQuery builds QX(FX) = join of atoms(ω_X); free defaults to fx.
func (b *builder) residualQuery(n *vorder.Node, free tuple.Schema) *query.Query {
	rq := &query.Query{Name: "Q_" + string(n.Var)}
	for _, a := range n.SubAtoms() {
		rq.Atoms = append(rq.Atoms, query.Atom{Rel: a.Rel, Vars: a.Vars.Clone()})
	}
	if n.Atom != nil {
		rq.Atoms = append(rq.Atoms, query.Atom{Rel: n.Atom.Rel, Vars: n.Atom.Vars.Clone()})
		rq.Name = "Q_" + n.Atom.Rel
	}
	if free == nil {
		free = b.fx(n)
	}
	rq.Free = free.Intersect(rq.Vars())
	return rq
}

// lightPart registers (if needed) and returns the light part of rel
// partitioned on keys.
func (b *builder) lightPart(a *query.Atom, keys tuple.Schema) *LightPart {
	id := LightPartID{Rel: a.Rel, Key: joinVars(keys)}
	if lp, ok := b.forest.LightParts[id]; ok {
		return lp
	}
	lp := &LightPart{
		Rel:    a.Rel,
		Name:   fmt.Sprintf("%s^%s", a.Rel, joinVars(keys)),
		Keys:   keys.Clone(),
		Schema: a.Vars.Clone(),
	}
	b.forest.LightParts[id] = lp
	return lp
}

func joinVars(s tuple.Schema) string { return strings.Join(s.Names(), ",") }

// atomLeaf builds a leaf node for an atom, as a base relation or as a light
// part when lightOn is non-nil.
func (b *builder) atomLeaf(a *query.Atom, lightOn tuple.Schema) *Node {
	if lightOn == nil {
		return &Node{Kind: Atom, Name: a.Rel, Rel: a.Rel, Schema: a.Vars.Clone()}
	}
	lp := b.lightPart(a, lightOn)
	return &Node{Kind: LightAtom, Name: lp.Name, Rel: a.Rel, Schema: a.Vars.Clone(), Keys: lightOn.Clone()}
}

// newVT is NewVT (Figure 7): if there is a single subtree whose root schema
// already equals S (as a set), reuse it; otherwise create a view V(S) over
// the subtrees.
func (b *builder) newVT(prefix string, v tuple.Variable, s tuple.Schema, subtrees []*Node) *Node {
	if len(subtrees) == 1 && subtrees[0].Schema.SameSet(s) {
		return subtrees[0]
	}
	return &Node{
		Kind:     View,
		Name:     b.fresh(prefix, v),
		Schema:   s.Clone(),
		Children: subtrees,
	}
}

// auxView is AuxView (Figure 8): in dynamic mode, if the variable-order
// node z has a sibling and anc(z) is a strict subset of the subtree's root
// schema, add a view over anc(z) that aggregates z's subtree away.
func (b *builder) auxView(z *vorder.Node, t *Node) *Node {
	if b.mode != Dynamic || b.opts.NoAuxViews || !z.HasSibling() {
		return t
	}
	anc := z.Anc()
	if t.Schema.ContainsAll(anc) && !t.Schema.SameSet(anc) {
		name := string(z.Var)
		if z.Atom != nil {
			name = z.Atom.Rel
		}
		return &Node{
			Kind:     View,
			Name:     b.fresh("Aux"+name, ""),
			Schema:   anc.Clone(),
			Children: []*Node{t},
		}
	}
	return t
}

// buildVT is BuildVT (Figure 6) on the variable-order subtree rooted at n,
// with free variables f. When lightOn is non-nil, every atom is replaced by
// its light part partitioned on lightOn (the ω^keys orders of Figures 10
// and 11), and view names use the given prefix.
func (b *builder) buildVT(prefix string, n *vorder.Node, f tuple.Schema, lightOn tuple.Schema) *Node {
	if n.Atom != nil {
		return b.atomLeaf(n.Atom, lightOn)
	}
	x := n.Var
	subtrees := make([]*Node, 0, len(n.Children))
	if f.ContainsAll(keysOf(n)) {
		// (anc(X) ∪ {X}) ⊆ F: aggregate nothing at X; children get aux
		// views so that they share the schema anc(X) ∪ {X} in dynamic mode.
		for _, c := range n.Children {
			t := b.buildVT(prefix, c, f, lightOn)
			subtrees = append(subtrees, b.auxView(c, t))
		}
		return b.newVT(prefix, x, keysOf(n), subtrees)
	}
	fx := n.Anc().Union(f.Intersect(n.SubVars()))
	for _, c := range n.Children {
		subtrees = append(subtrees, b.buildVT(prefix, c, f, lightOn))
	}
	return b.newVT(prefix, x, fx, subtrees)
}

// indicatorVTs is IndicatorVTs (Figure 10) for the subtree rooted at the
// bound variable n: view trees for All (over base relations), L (over
// light parts partitioned on keys), and the materialized ∃H = ∃All ⋈ ∄L.
func (b *builder) indicatorVTs(n *vorder.Node) *Indicator {
	keys := keysOf(n)
	b.indSeq++
	ind := &Indicator{
		Name: fmt.Sprintf("H%s_%d", n.Var, b.indSeq),
		Keys: keys.Clone(),
	}
	ind.All = b.buildVT("All", n, keys, nil)
	ind.All = b.wrapToSchema("All", n.Var, ind.All, keys)
	ind.L = b.buildVT("L", n, keys, keys)
	ind.L = b.wrapToSchema("L", n.Var, ind.L, keys)
	for _, a := range n.SubAtoms() {
		ind.Rels = append(ind.Rels, a.Rel)
	}
	b.setParents(ind.All, nil)
	b.setParents(ind.L, nil)
	b.forest.Indicators = append(b.forest.Indicators, ind)
	return ind
}

// wrapToSchema guarantees the tree's root schema is exactly keys, adding a
// projection view if BuildVT returned a wider root (e.g. a single atom).
func (b *builder) wrapToSchema(prefix string, v tuple.Variable, t *Node, keys tuple.Schema) *Node {
	if t.Schema.SameSet(keys) {
		return t
	}
	return &Node{
		Kind:     View,
		Name:     b.fresh(prefix+"Root"+string(v), ""),
		Schema:   keys.Clone(),
		Children: []*Node{t},
	}
}

// tau is the skew-aware construction τ (Figure 11). It returns the set of
// view trees whose union of represented results equals the residual query
// at n (Proposition 20).
func (b *builder) tau(n *vorder.Node) []*Node {
	if n.Atom != nil {
		return []*Node{b.atomLeaf(n.Atom, nil)}
	}
	x := n.Var
	keys := keysOf(n)
	fx := b.fx(n)
	qx := b.residualQuery(n, fx)

	// Lines 5–7: stop splitting when the residual query is easy.
	easy := false
	if b.mode == Static {
		easy = qx.IsFreeConnex()
	} else {
		easy = qx.IsHierarchical() && qx.DynamicWidth() == 0
	}
	if easy {
		return []*Node{b.buildVT("V", n, fx, nil)}
	}

	if b.q.Free.Contains(x) {
		// Lines 8–11: X free — recurse into children and combine.
		return b.combine(n, keys, nil)
	}

	// Lines 12–17: X bound — heavy strategies plus the all-light strategy.
	ind := b.indicatorVTs(n)
	hleaf := func() *Node {
		return &Node{Kind: IndicatorRef, Name: ind.Name, Schema: ind.Keys.Clone(), Keys: ind.Keys.Clone(), Ind: ind}
	}
	htrees := b.combine(n, keys, hleaf)
	ltree := b.buildVT("V", n, fx, keys)
	return append(htrees, ltree)
}

// combine builds one view tree per combination of child strategies
// (the Cartesian product over τ(ωi, F)), wrapping children in aux views
// and prepending an ∃H leaf when extra() is non-nil.
func (b *builder) combine(n *vorder.Node, keys tuple.Schema, extra func() *Node) []*Node {
	choices := make([][]*Node, len(n.Children))
	for i, c := range n.Children {
		choices[i] = b.tau(c)
	}
	var out []*Node
	pick := make([]int, len(choices))
	for {
		subtrees := make([]*Node, 0, len(choices)+1)
		if extra != nil {
			subtrees = append(subtrees, extra())
		}
		for i, c := range n.Children {
			t := b.copyTree(choices[i][pick[i]])
			subtrees = append(subtrees, b.auxView(c, t))
		}
		out = append(out, b.newVT("V", n.Var, keys, subtrees))
		// Next combination.
		i := len(pick) - 1
		for ; i >= 0; i-- {
			pick[i]++
			if pick[i] < len(choices[i]) {
				break
			}
			pick[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out
}

// copyTree deep-copies a view tree, renaming its views: a node has one
// Parent, so a subtree used by two trees is two subtrees, which number
// finds to be one class. Indicator references and leaf identities are
// preserved.
func (b *builder) copyTree(n *Node) *Node {
	c := &Node{
		Kind:   n.Kind,
		Name:   n.Name,
		Rel:    n.Rel,
		Schema: n.Schema.Clone(),
		Keys:   n.Keys.Clone(),
		Ind:    n.Ind,
	}
	if n.Kind == View {
		b.seq++
		c.Name = fmt.Sprintf("%s_c%d", n.Name, b.seq)
	}
	for _, ch := range n.Children {
		cc := b.copyTree(ch)
		cc.Parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}

func (b *builder) setParents(n *Node, parent *Node) {
	n.Parent = parent
	for _, c := range n.Children {
		b.setParents(c, n)
	}
}
