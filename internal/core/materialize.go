package core

import (
	"fmt"
	"slices"

	"ivmeps/internal/naive"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// LoadRows adds a block of rows of rel ahead of Preprocess — row i is the
// i-th run of arity values in vals, with multiplicity mults[i] > 0 — and is
// the one way initial data enters an engine: each row is appended to the
// base relation of every occurrence of rel, and Preprocess places every
// appended row at once (relation.Seal), exactly as MustAdd of each row in
// load order would have, so repeated loads of one row accumulate
// multiplicity. Until then the base relations may not be read. The block is
// validated whole before the first write, so a rejected block leaves no
// occurrence changed. The relation is resolved through a one-entry cache in
// front of the name map, since loads come in runs of one relation.
func (e *Engine) LoadRows(rel string, vals []tuple.Value, mults []int64) error {
	if e.preprocessed {
		return fmt.Errorf("core: Load after Preprocess; use Update or CommitBatch")
	}
	br := e.loadRel
	if br == nil || br.name != rel {
		id := e.relIdx[rel]
		if id == 0 {
			return fmt.Errorf("%w: %q (query %s)", ErrUnknownRelation, rel, e.orig)
		}
		br = &e.relTab[id-1]
		e.loadRel = br
	}
	if err := CheckRows(rel, br.occs[0].base.Schema(), vals, mults); err != nil {
		return err
	}
	k := br.arity
	for _, rt := range br.occs {
		for i, m := range mults {
			rt.base.Append(vals[i*k:(i+1)*k], m)
		}
	}
	return nil
}

// CheckRows validates a block of rows of relation rel, whose schema is s,
// as LoadRows takes it: len(vals) is len(mults) rows of s's arity — one row
// of another length is an ArityError — and every multiplicity is positive.
func CheckRows(rel string, s tuple.Schema, vals []tuple.Value, mults []int64) error {
	k := len(s)
	if len(vals) != k*len(mults) {
		if len(mults) == 1 {
			return &relation.ArityError{Relation: rel, Row: slices.Clone(vals), Schema: s.Names()}
		}
		return fmt.Errorf("core: relation %s: %d values are not %d rows of arity %d", rel, len(vals), len(mults), k)
	}
	for i, m := range mults {
		if m <= 0 {
			return fmt.Errorf("ivmeps: relation %s: row %v has non-positive multiplicity %d", rel, slices.Clone(vals[i*k:(i+1)*k]), m)
		}
	}
	return nil
}

// Preprocess places every row LoadRows appended in its base relation
// (relation.Seal) and materializes every view (Proposition 21): the light
// parts are computed by a strict partition with threshold θ = M^ε, the
// indicator trees and heavy indicators are built, and all view trees are
// materialized bottom-up — a sum of one child off the child's index where it
// has one (joinChildren), the enumeration indexes such sums read built
// first, the others after. It runs once: a second call is a misuse by the
// owner and panics.
func (e *Engine) Preprocess() {
	if e.preprocessed {
		panic("core: Preprocess of an engine already preprocessed")
	}
	for i := range e.relTab {
		for _, rt := range e.relTab[i].occs {
			rt.base.Seal()
		}
	}
	e.recomputeN()
	// The preprocessing stage sets M = 2N + 1, establishing ⌊M/4⌋ ≤ N < M
	// (proof of Proposition 27). N is maintained incrementally from here on.
	e.m = 2*e.n + 1
	e.materializeAll()
	e.buildEnumIndexes()
	if e.opts.Mode == viewtree.Dynamic {
		e.buildRoutes()
	} else {
		clear(e.fills) // a static engine never rebalances: drop the plans and aggregates
	}
	e.buildRootsLocked()
	e.preprocessed = true
	e.epoch = 1 // first committed state
}

// Preprocess loads db into e row by row through LoadRows and runs
// e.Preprocess: the database loader of the callers — bench/ among them —
// that hold their initial data as relations. db maps original relation
// names to relations; missing relations start empty. Unlike e.Preprocess it
// returns an error on an engine already preprocessed.
func Preprocess(e *Engine, db naive.Database) error {
	if e.preprocessed {
		return fmt.Errorf("core: engine already preprocessed")
	}
	var ms [1]int64
	for name, src := range db {
		for id := src.First(); id != relation.End; id = src.Next(id) {
			t, m := src.At(id)
			ms[0] = m
			if err := e.LoadRows(name, t, ms[:]); err != nil {
				return err
			}
		}
	}
	e.Preprocess()
	return nil
}

// materializeAll (re)computes all derived state from the base relations:
// strict light parts for the current θ, indicator views, heavy indicators,
// and all main view trees. It is used by preprocessing and by major
// rebalancing (Figure 20), which finds every plan compiled and every table
// sized and allocates nothing.
func (e *Engine) materializeAll() {
	theta := e.Theta()
	for _, pr := range e.partitions {
		pr.p.Rebuild(theta)
	}
	clear(e.filled)
	for _, ind := range e.forest.Indicators {
		e.materializeTree(ind.All)
		e.materializeTree(ind.L)
		e.materializeH(ind)
	}
	for _, c := range e.forest.Components {
		for _, t := range c.Trees {
			e.materializeTree(t)
		}
	}
}

// materializeTree computes every view of a tree bottom-up, refilling its
// relation in place — routes and plans cache the pointer (routes.go); its
// leaves (base relations, light parts, heavy indicators) are already
// materialized. A view class is filled once a round, through whichever of its
// nodes comes first; the equal subtree below a later one is done by then.
func (e *Engine) materializeTree(n *viewtree.Node) {
	if n.Kind != viewtree.View || e.filled[n.Canon.ID] {
		return
	}
	e.filled[n.Canon.ID] = true
	for _, c := range n.Children {
		e.materializeTree(c)
	}
	e.joinChildren(n)
}

// joinInput is one input of a compiled join: a node's relation, every row of
// which counts once when the node is a ∃-child of an indicator tree.
type joinInput struct {
	rel    *relation.Relation
	exists bool
}

func (e *Engine) input(n *viewtree.Node) joinInput { return joinInput{e.rels[n.ID], n.Exists} }

// viewFill is one compiled step of a view's materialization: seed, run whole
// through plan as if it were the delta, lands in dst. A view is the delta of
// its definition under "insert all of one child": its last step seeds the
// update plan over its other children with the narrowest child (for an only
// child, a plan without steps: a sum onto the view's schema). The steps before
// are the InsideOut push-down that keeps materialization within Prop 21 (the
// static V(B) = ∃H(B), R(A,B), S(B,C) is ∃H ⋈ (Σ_A R) ⋈ (Σ_C S), not the flat
// join): a child with variables neither the view nor a sibling needs is first
// summed onto the others, into a relation kept as long as the plans over it.
//
// A fill without steps whose seed has an index on exactly dst's variables —
// or will have one, for enumeration (enumIndexes), which compileFill then
// builds ahead — reads its sums off that index (relation.Index.Sums), whose
// key toDst permutes into dst's column order: the seed's rows are grouped
// once, for the index, not again for the sum.
type viewFill struct {
	plan  *updPlan
	seed  joinInput
	dst   *relation.Relation
	sum   *relation.Index
	toDst tuple.Projection
}

func (e *Engine) compileFill(n *viewtree.Node) []viewFill {
	var fills []viewFill
	ins := make([]joinInput, len(n.Children))
	seed := 0
	for i, c := range n.Children {
		ins[i] = e.input(c)
		needed := n.Schema
		for j, s := range n.Children {
			if j != i {
				needed = needed.Union(s.Schema)
			}
		}
		keep := c.Schema.Intersect(needed)
		if len(keep) < len(c.Schema) && len(n.Children) > 1 && !e.opts.NoPushdown {
			agg := relation.New(c.Name+"#agg", keep)
			fills = append(fills, viewFill{plan: e.compilePlan(c.Schema, nil, keep), seed: ins[i], dst: agg})
			ins[i] = joinInput{rel: agg}
		}
		if len(ins[i].rel.Schema()) < len(ins[seed].rel.Schema()) {
			seed = i
		}
	}
	s := ins[seed]
	fills = append(fills, viewFill{plan: e.compilePlan(s.rel.Schema(), slices.Delete(ins, seed, seed+1), n.Schema), seed: s, dst: e.rels[n.ID]})
	for i := range fills {
		if f := &fills[i]; len(f.plan.steps) == 0 {
			f.sum, f.toDst = e.sumIndex(f.seed.rel, f.dst.Schema())
		}
	}
	return fills
}

// sumIndex returns the index on seed a fill without steps onto out reads its
// sums off, with the projection of its key onto out: seed's index on out —
// a light part's on its partition key — or else the one enumeration reads
// seed through, if its key has exactly out's variables, built here ahead of
// buildEnumIndexes. It returns nil if there is neither.
func (e *Engine) sumIndex(seed *relation.Relation, out tuple.Schema) (*relation.Index, tuple.Projection) {
	ix, key := seed.Index(out), out
	if ix == nil {
		e.enumIndexes(func(r *relation.Relation, k tuple.Schema) {
			if ix == nil && r == seed && len(k) == len(out) && out.ContainsAll(k) {
				ix, key = r.EnsureIndex(k), k
			}
		})
	}
	if ix == nil {
		return nil, tuple.Projection{}
	}
	return ix, tuple.MustProjection(key, out)
}

// joinChildren clears n's relation and fills it with V(S) = C1(S1), ...,
// Ck(Sk) over the children's materialized relations, by the fill of n's class.
// A join is a bulk fill: a counting pass runs the plan one step short and sums
// the last step's bucket sizes — the rows the join will append, |V| unless the
// projection merges some — which size the relation's columns; the join then
// appends its rows and Seal places them (relation.Relation.Append). A fill
// without steps, a sum of one child, is a bulk fill too when it reads its
// sums off an index, one row per distinct key (viewFill); without one, it
// adds its rows one by one.
func (e *Engine) joinChildren(n *viewtree.Node) {
	id := n.Canon.ID
	if e.fills[id] == nil {
		e.fills[id] = e.compileFill(n)
	}
	for _, f := range e.fills[id] {
		f.dst.Clear()
		if f.sum != nil {
			f.dst.Reserve(f.sum.DistinctKeys())
			e.sums = f.sum.Sums(e.sums, f.seed.exists, func(k tuple.Tuple, m int64) {
				f.dst.Append(f.toDst.AppendTo(f.plan.outScratch[:0], k), m)
			})
			f.dst.Seal()
			continue
		}
		if len(f.plan.steps) == 0 {
			f.plan.fill(e.ubind, f.seed, &planSink{view: f.dst})
			continue
		}
		count := planSink{count: true}
		f.plan.fill(e.ubind, f.seed, &count)
		f.dst.Reserve(count.rows)
		f.plan.fill(e.ubind, f.seed, &planSink{view: f.dst, bulk: true})
		f.dst.Seal()
	}
}

// materializeH computes the heavy indicator ∃H = ∃All ⋈ ∄L: the keys
// present in the All view whose light-view support is empty, with set
// semantics (Figure 10, line 7).
func (e *Engine) materializeH(ind *viewtree.Indicator) {
	all, l, h := e.indicatorRels(ind)
	h.Clear()
	all.ForEach(func(t tuple.Tuple, m int64) {
		if l.Mult(t) == 0 {
			h.MustAdd(t, 1)
		}
	})
}

// buildEnumIndexes creates, ahead of enumeration, the secondary indexes the
// iterators need (enumIndexes).
func (e *Engine) buildEnumIndexes() {
	e.enumIndexes(func(r *relation.Relation, key tuple.Schema) { r.EnsureIndex(key) })
}

// enumIndexes calls fn with every secondary index the iterators need, as a
// relation and a key: every child of a main-tree view is indexed on the
// variables it shares with its parent's schema, unless it shares none or all.
func (e *Engine) enumIndexes(fn func(r *relation.Relation, key tuple.Schema)) {
	for _, t := range e.forest.Trees() {
		walkNodes(t, func(n *viewtree.Node) {
			for _, c := range n.Children {
				shared := c.Schema.Intersect(n.Schema)
				if c.Kind != viewtree.IndicatorRef && len(shared) > 0 && len(shared) < len(c.Schema) {
					fn(e.rels[c.ID], shared)
				}
			}
		})
	}
}
