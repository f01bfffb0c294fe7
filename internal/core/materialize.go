package core

import (
	"fmt"
	"slices"

	"ivmeps/internal/naive"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// Load adds the row {t → m}, m > 0, to relation rel ahead of Preprocess: the
// row goes into the base relation of every occurrence of rel, and repeated
// loads of one row accumulate multiplicity. It is the one way initial data
// enters an engine; Preprocess(db) loads db through it.
func (e *Engine) Load(rel string, t tuple.Tuple, m int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.loadLocked(rel, t, m)
}

// loadLocked validates a loaded row — all of it before the first write, so
// a rejected row leaves no occurrence changed — and stores it.
func (e *Engine) loadLocked(rel string, t tuple.Tuple, m int64) error {
	if e.preprocessed {
		return fmt.Errorf("core: Load after Preprocess; use Update or CommitBatch")
	}
	id := e.relIdx[rel]
	if id == 0 {
		return fmt.Errorf("core: %w: %q (query %s)", ErrUnknownRelation, rel, e.orig)
	}
	if m <= 0 {
		return fmt.Errorf("core: relation %s: tuple %v has non-positive multiplicity %d", rel, t, m)
	}
	occs := e.relTab[id-1].occs
	for _, rt := range occs {
		if len(t) != len(rt.base.Schema()) {
			return &relation.ArityError{Relation: rel, Tuple: t.Clone(), Schema: rt.base.Schema()}
		}
	}
	for _, rt := range occs {
		rt.base.MustAdd(t, m)
	}
	return nil
}

// Preprocess loads db, if any, on top of what Load stored and materializes
// every view (Proposition 21): the light parts are computed by a strict
// partition with threshold θ = M^ε, the indicator trees and heavy
// indicators are built, and all view trees are materialized bottom-up. db
// maps original relation names to relations; missing relations start empty.
func (e *Engine) Preprocess(db naive.Database) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.preprocessed {
		return fmt.Errorf("core: engine already preprocessed")
	}
	for name, src := range db {
		for id := src.First(); id != relation.End; id = src.Next(id) {
			t, m := src.At(id)
			if err := e.loadLocked(name, t, m); err != nil {
				return err
			}
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
	return nil
}

// Preprocess is e.Preprocess(db), for the callers — bench/ among them —
// that spell it as a function.
func Preprocess(e *Engine, db naive.Database) error { return e.Preprocess(db) }

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
type viewFill struct {
	plan *updPlan
	seed joinInput
	dst  *relation.Relation
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
			fills = append(fills, viewFill{e.compilePlan(c.Schema, nil, keep), ins[i], agg})
			ins[i] = joinInput{rel: agg}
		}
		if len(ins[i].rel.Schema()) < len(ins[seed].rel.Schema()) {
			seed = i
		}
	}
	s := ins[seed]
	return append(fills, viewFill{e.compilePlan(s.rel.Schema(), slices.Delete(ins, seed, seed+1), n.Schema), s, e.rels[n.ID]})
}

// joinChildren clears n's relation and fills it with V(S) = C1(S1), ...,
// Ck(Sk) over the children's materialized relations, by the fill of n's class.
// A join is a bulk fill: a counting pass runs the plan one step short and sums
// the last step's bucket sizes — the rows the join will append, |V| unless the
// projection merges some — which size the relation's columns; the join then
// appends its rows and Seal places them (relation.Relation.Append). A fill
// without steps, a sum of one child, adds its rows one by one.
func (e *Engine) joinChildren(n *viewtree.Node) {
	id := n.Canon.ID
	if e.fills[id] == nil {
		e.fills[id] = e.compileFill(n)
	}
	for _, f := range e.fills[id] {
		f.dst.Clear()
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
// iterators need: every child view is indexed on the variables it shares
// with its parent's schema, and every tree root on the variables shared
// with its grounding keys.
func (e *Engine) buildEnumIndexes() {
	for _, t := range e.forest.Trees() {
		walkNodes(t, func(n *viewtree.Node) {
			for _, c := range n.Children {
				shared := c.Schema.Intersect(n.Schema)
				if c.Kind != viewtree.IndicatorRef && len(shared) > 0 && len(shared) < len(c.Schema) {
					e.rels[c.ID].EnsureIndex(shared)
				}
			}
		})
	}
}
