package core

// Precomputed propagation routes for the update hot path. The view forest
// is static after Build: which leaves an update to relation R reaches, and
// the leaf→root path above each of them, never change. Instead of
// re-discovering that structure on every update (walking every tree to find
// matching leaves, scanning all partitions and indicators), buildRoutes
// computes it once at preprocessing time:
//
//   - relRoutes:     everything reachable from one occurrence relation —
//     its Atom leaves in the main trees, the indicators whose All tree
//     contains it, and the partitions of its light parts;
//   - leafPath:      the leaf→root chain of (update plan, materialized
//     view) pairs, so propagation performs zero map lookups, each marked
//     if its view is another node's to write or read through ∃ by its parent;
//   - indShared:     per-indicator state shared across relations — the
//     materialized All/L/∃H relations and the IndicatorRef leaves of the
//     main trees.
//
// Route structures cache *relation.Relation pointers, which is sound
// because every node's relation is set at New and materializeAll refills
// relations in place (identity is stable across major rebalancing). All
// scratch buffers below make the single-tuple update path allocation-free.
//
// Every leafPath also records the view tree it belongs to (nodeInfo.tree, a
// dense id over all main, All, and L trees), whose capture slot it fills.

import (
	"slices"

	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// relRoutes is one occurrence of a relation symbol (relEntry.occs): its base
// relation and partitions, known from New on, and — once buildRoutes ran —
// the full routing table of an update to it.
type relRoutes struct {
	base    *relation.Relation
	countsN bool // the first occurrence of its symbol: its size counts toward N

	atomLeaves []*leafPath  // Atom leaves for the occurrence in the main trees
	inds       []*indRoute  // indicators whose All tree contains it
	parts      []*partRoute // in order of their first LightAtom leaf
}

// partition returns the occurrence's partition behind a LightAtom leaf,
// creating it at the leaf's first mention.
func (rt *relRoutes) partition(leaf *viewtree.Node) *partRoute {
	for _, pr := range rt.parts {
		if pr.p.Key().Equal(leaf.Keys) {
			return pr
		}
	}
	pr := &partRoute{p: relation.NewPartition(rt.base, leaf.Keys, leaf.Name)}
	rt.parts = append(rt.parts, pr)
	return pr
}

// partitions yields every partition with its occurrence, in relation-table
// order.
func (e *Engine) partitions(yield func(*relRoutes, *partRoute) bool) {
	for i := range e.relTab {
		for _, rt := range e.relTab[i].occs {
			for _, pr := range rt.parts {
				if !yield(rt, pr) {
					return
				}
			}
		}
	}
}

// leafPath is the fixed leaf→root propagation chain above one leaf.
type leafPath struct {
	leaf  *viewtree.Node
	tree  int // dense id of the leaf's view tree (capture slot)
	edges []pathEdge
}

// pathEdge is one step of the chain: the delta-propagation plan into the
// parent view and the parent's materialized relation. skip marks an edge
// into a view that is not its class's writer (Engine.writer), whose edge
// maintains the relation they share; flips one into a ∃-child of an indicator
// tree, whose parent is handed support changes (propagatePath).
type pathEdge struct {
	plan        *updPlan
	view        *relation.Relation
	skip, flips bool
}

// indShared is per-indicator state shared by all relations routing into it.
type indShared struct {
	ind       *viewtree.Indicator
	all, l, h *relation.Relation
	refLeaves []*leafPath // IndicatorRef leaves for ind in the main trees
	d1        delta       // scratch delta for δ(∃H) propagation
}

// indRoute routes one occurrence relation into one indicator's All tree.
type indRoute struct {
	s          *indShared
	keyProj    tuple.Projection // base schema → ind.Keys
	keyScratch tuple.Tuple
	allLeaves  []*leafPath // Atom leaves for rel in s.ind.All
}

// partRoute routes one occurrence relation into one of its partitions.
type partRoute struct {
	p           *relation.Partition
	keyScratch  tuple.Tuple
	lightLeaves []*leafPath // LightAtom(rel, key) leaves in the main trees
	inds        []*indLightRoute
	keys        []batchKey // the distinct keys of applyBatchOcc's current delta
}

// indLightRoute routes one occurrence relation into one indicator's L tree.
type indLightRoute struct {
	s       *indShared
	lLeaves []*leafPath // LightAtom(rel, key) leaves in s.ind.L
}

// buildRoutes fills the routing tables of every occurrence, in relation-table
// order. It requires all views to be materialized (plans cache view
// relations and sibling indexes). Every list of leaves is in node-ID order,
// main trees first, so the edge into a class's writer propagates before the
// edges of later indicator trees that probe it.
func (e *Engine) buildRoutes() {
	shared := map[*viewtree.Indicator]*indShared{}
	for _, ind := range e.forest.Indicators {
		s := &indShared{ind: ind}
		s.all, s.l, s.h = e.indicatorRels(ind)
		for _, ref := range ind.Refs {
			s.refLeaves = append(s.refLeaves, e.buildPath(ref))
		}
		shared[ind] = s
	}
	mainTrees := e.forest.Trees()

	for i := range e.relTab {
		for _, rt := range e.relTab[i].occs {
			occName := rt.base.Name()
			for _, tr := range mainTrees {
				walkNodes(tr, func(n *viewtree.Node) {
					if n.Kind == viewtree.Atom && n.Rel == occName {
						rt.atomLeaves = append(rt.atomLeaves, e.buildPath(n))
					}
				})
			}
			for _, ind := range e.forest.Indicators {
				if !slices.Contains(ind.Rels, occName) {
					continue
				}
				ir := &indRoute{s: shared[ind], keyProj: tuple.MustProjection(rt.base.Schema(), ind.Keys)}
				walkNodes(ind.All, func(n *viewtree.Node) {
					if n.Kind == viewtree.Atom && n.Rel == occName {
						ir.allLeaves = append(ir.allLeaves, e.buildPath(n))
					}
				})
				rt.inds = append(rt.inds, ir)
			}
			for _, pr := range rt.parts {
				isLeaf := func(n *viewtree.Node) bool {
					return n.Kind == viewtree.LightAtom && n.Rel == occName && n.Keys.Equal(pr.p.Key())
				}
				for _, tr := range mainTrees {
					walkNodes(tr, func(n *viewtree.Node) {
						if isLeaf(n) {
							pr.lightLeaves = append(pr.lightLeaves, e.buildPath(n))
						}
					})
				}
				for _, ind := range e.forest.Indicators {
					if !slices.Contains(ind.Rels, occName) || !ind.Keys.Equal(pr.p.Key()) {
						continue
					}
					il := &indLightRoute{s: shared[ind]}
					walkNodes(ind.L, func(n *viewtree.Node) {
						if isLeaf(n) {
							il.lLeaves = append(il.lLeaves, e.buildPath(n))
						}
					})
					pr.inds = append(pr.inds, il)
				}
			}
		}
	}
}

// buildPath precomputes the propagation chain from leaf to its tree root,
// building (and caching) the update plan of every step.
func (e *Engine) buildPath(leaf *viewtree.Node) *leafPath {
	lp := &leafPath{leaf: leaf}
	child := leaf
	for n := leaf.Parent; n != nil; n = n.Parent {
		lp.edges = append(lp.edges, pathEdge{plan: e.updatePlan(n, child), view: e.rels[n.ID], skip: e.writer[n.Canon.ID] != n, flips: n.Exists})
		child = n
	}
	lp.tree = e.info[leaf.ID].tree
	return lp
}

func walkNodes(n *viewtree.Node, fn func(*viewtree.Node)) {
	fn(n)
	for _, c := range n.Children {
		walkNodes(c, fn)
	}
}
