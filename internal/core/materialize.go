package core

import (
	"fmt"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
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
		for en := src.First(); en != nil; en = src.Next(en) {
			if err := e.loadLocked(name, en.Tuple, en.Mult); err != nil {
				return err
			}
		}
	}
	e.recomputeN()
	// The preprocessing stage sets M = 2N + 1, establishing ⌊M/4⌋ ≤ N < M
	// (proof of Proposition 27). N is maintained incrementally from here on.
	e.m = 2*e.n + 1
	e.materializeAll()
	if e.opts.Mode == viewtree.Dynamic {
		e.buildRoutes()
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
// rebalancing (Figure 20).
func (e *Engine) materializeAll() {
	theta := e.Theta()
	for _, pr := range e.partitions {
		pr.p.Rebuild(theta)
	}
	for _, ind := range e.forest.Indicators {
		e.materializeTree(ind.All)
		e.materializeTree(ind.L)
		e.materializeH(ind)
	}
	for _, t := range e.forest.Trees() {
		e.materializeTree(t)
	}
	e.buildEnumIndexes()
}

// materializeTree computes every view of a tree bottom-up. Leaves (base
// relations, light parts, heavy indicators) are already materialized. A
// view's relation is created at its first materialization and refilled in
// place from then on, so the relation pointers cached by the propagation
// routes and update plans (routes.go) stay valid across major rebalancing.
func (e *Engine) materializeTree(n *viewtree.Node) {
	for _, c := range n.Children {
		e.materializeTree(c)
	}
	if n.Kind != viewtree.View {
		return
	}
	if e.rels[n.ID] == nil {
		e.rels[n.ID] = relation.New(n.Name, n.Schema)
	}
	e.joinChildren(n, e.rels[n.ID])
}

// joinChildren clears v and fills it with V(S) = C1(S1), ..., Ck(Sk) over
// the children's materialized relations. Each child is first aggregated
// onto the variables that the view's schema or some sibling actually needs
// — the InsideOut push-down the paper uses to keep materialization within
// the Prop 21 bounds (e.g. the static heavy tree V(B) = ∃H(B), R(A,B),
// S(B,C) is computed as ∃H ⋈ (Σ_A R) ⋈ (Σ_C S) in linear time, not as the
// flat join).
func (e *Engine) joinChildren(n *viewtree.Node, v *relation.Relation) {
	sub := &query.Query{Name: n.Name, Free: n.Schema}
	db := naive.Database{}
	for i, c := range n.Children {
		needed := n.Schema.Clone()
		for j, s := range n.Children {
			if j != i {
				needed = needed.Union(s.Schema)
			}
		}
		keep := c.Schema.Intersect(needed)
		rel := e.rels[c.ID]
		name := c.Name
		if !e.opts.NoPushdown && len(keep) < len(c.Schema) {
			name = fmt.Sprintf("%s#agg%d", c.Name, i)
			rel = aggregateOnto(name, rel, keep)
		}
		if e.opts.NoPushdown {
			keep = c.Schema
		}
		sub.Atoms = append(sub.Atoms, query.Atom{Rel: name, Vars: keep})
		db[name] = rel
	}
	v.Clear()
	if err := naive.EvalInto(v, sub, db, -1); err != nil {
		panic(fmt.Sprintf("core: materialize %s: %v", n.Name, err))
	}
}

// aggregateOnto projects rel onto keep, summing multiplicities; linear in
// |rel|.
func aggregateOnto(name string, rel *relation.Relation, keep tuple.Schema) *relation.Relation {
	out := relation.New(name, keep)
	proj := tuple.MustProjection(rel.Schema(), keep)
	rel.ForEach(func(t tuple.Tuple, m int64) {
		out.MustAdd(proj.Apply(t), m)
	})
	return out
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
	var walk func(n *viewtree.Node)
	walk = func(n *viewtree.Node) {
		for _, c := range n.Children {
			if c.Kind == viewtree.IndicatorRef {
				continue
			}
			shared := c.Schema.Intersect(n.Schema)
			if len(shared) > 0 && len(shared) < len(c.Schema) {
				e.rels[c.ID].EnsureIndex(shared)
			}
			walk(c)
		}
	}
	for _, t := range e.forest.Trees() {
		walk(t)
	}
}
