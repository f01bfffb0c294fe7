// Package core implements the paper's evaluation engine for hierarchical
// queries: preprocessing (Section 4), enumeration with the open/next/close
// iterator model and the Union and Product algorithms (Section 5), and
// dynamic maintenance with delta propagation, indicator updates, and minor
// and major rebalancing (Section 6).
//
// The engine is parameterized by ε ∈ [0, 1]: for a query with static width
// w and dynamic width δ it provides
//
//	preprocessing   O(N^(1+(w−1)ε))   (Theorem 2 / Proposition 21)
//	delay           O(N^(1−ε))        (Proposition 22)
//	amortized update O(N^(δε))        (Theorem 4 / Proposition 27)
package core

import (
	"fmt"

	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// Options configures an Engine.
type Options struct {
	// Mode selects static or dynamic evaluation. Static engines reject
	// Update calls but build fewer views. Default: Dynamic.
	Mode viewtree.Mode
	// Epsilon is the trade-off parameter ε ∈ [0, 1].
	Epsilon float64
	// PlainViewTree, when set, builds the single BuildVT view tree per
	// component with no skew-aware partitioning (Section 4.1 only). This is
	// the DynYannakakis / F-IVM style baseline: linear preprocessing for
	// free-connex queries, but updates may cost O(N) per view and the
	// enumeration of non-free-connex queries falls back to join work at
	// enumeration time.
	PlainViewTree bool

	// Workers is ignored: a commit propagates on the goroutine that makes
	// it, and Preprocess's helpers follow the share of GOMAXPROCS its caller
	// passes. Sharding (internal/federation) is the parallel path.
	//
	// Deprecated: no effect; kept so existing callers compile.
	Workers int

	// NoAuxViews is an ablation switch: build the dynamic trees without
	// the auxiliary views of Figure 8. Results stay correct, but delta
	// propagation loses its constant-time sibling lookups (Lemma 47).
	NoAuxViews bool
	// NoPushdown is an ablation switch: materialize each view as a flat
	// join of its children instead of pre-aggregating children onto the
	// needed variables (the InsideOut step behind Proposition 21).
	// Preprocessing degrades from O(N^(1+(w-1)ε)) toward the flat join
	// cost.
	NoPushdown bool
}

// Engine maintains the materialized view trees of a hierarchical query and
// answers enumeration requests over them.
//
// An Engine is owned: it takes no lock, and its owner serializes every
// call — loads, commits, snapshot capture, subscriptions and every read of
// the live state (N, Stats, Epoch, Explain, the direct Result/Enumerate
// path). A commit propagates on the goroutine that makes it; the two halves
// of a two-phase commit may run on two goroutines if the owner orders the
// handoff. In this module the owner is internal/federation's Fed, whose
// mutex is the one writer lock. The only calls that need no serialization
// are the reads of a captured Snapshot and Snapshot.Close: they run on any
// goroutine, concurrently with the owner's commits — see snapshot.go for the
// epoch scheme.
type Engine struct {
	orig *query.Query // user's query
	q    *query.Query // occurrence-rewritten query (unique relation symbols)
	opts Options

	forest *viewtree.Forest

	// relTab is the relation table: one entry per original relation symbol
	// in first-occurrence order, indexed by RelID−1, and relIdx is the one
	// name lookup into it (RelID by name; 0 means unknown). Everything the
	// engine knows about the query's relations — base relations, light-part
	// partitions, propagation routes, commit validation state — hangs off an
	// entry, so every pass over "the relations" runs in table order.
	// loadRel is LoadRows's one-entry cache in front of relIdx.
	relTab  []relEntry
	relIdx  map[string]int
	loadRel *relEntry

	// Per-node state, indexed by viewtree.Node.ID. rels[id] is the node's
	// materialized relation, set at New and refilled in place from then on:
	// the base relation, light part or ∃H behind a leaf, one for all leaves
	// that name it, and one relation per structural class of view nodes
	// (viewtree.Node.Canon) — but for an index-backed view (nodeInfo.sumKey),
	// which has no relation of its own: its entry is its child's relation,
	// and sumIx[id], made at Preprocess, the index of that relation it is
	// read off. info[id] is the node's enumeration metadata and plans[id] the
	// delta plan from the node into its parent view; fills[id] is the fill of
	// the view class whose canonical node is id, filled[id] says
	// materializeAll's current round has run it, and writer[id] is the one
	// node of the class whose edges write its relation, nil for an
	// index-backed class.
	rels   []*relation.Relation
	sumIx  []*relation.Index
	info   []nodeInfo
	plans  []*updPlan
	fills  [][]viewFill
	filled []bool
	writer []*viewtree.Node

	// Propagation scratch: the binding slots of the update plans and the
	// pool of deltas propagatePath draws its per-edge deltas from.
	ubind     []tuple.Value
	deltaPool []*delta

	// Pooled batch-commit scratch (batch.go), beside the validation state
	// in the relation table and the key-grouping tables on the partition
	// routes: the first-touched entry order of the staged batch and the
	// refreshBatchH distinct-key set. Both are reset (capacity kept) rather
	// than reallocated, so repeated batches on one engine allocate only for
	// genuinely new entries.
	batchTouched  []int
	staged        bool // a validated batch is staged (PrepareCommit succeeded)
	stagedApplied int  // nonzero-mult ops of the staged batch
	seenKeys      relation.Keys

	// Variable slots for enumeration bindings.
	vars tuple.Schema
	slot map[tuple.Variable]int

	// ectx is the engine's own enumeration context, over rels itself;
	// snapshots carry their own over a frozen copy they pin (snapshot.go),
	// recycled with its handles through freeCtxs. scratchVals and
	// scratchFlags size the per-node scratch of a context: the sums of the
	// regions buildInfo hands out.
	ectx                      *enumCtx
	freeCtxs                  ctxList
	scratchVals, scratchFlags int

	// freeSlots are the slots of free(Q) in head order.
	freeSlots []int

	// epoch counts committed write operations. It is bumped at the two
	// commit points — Preprocess, and the commit envelope's
	// applyStagedLocked (major rebalances happen inside a commit and
	// publish with it) — and stamped onto snapshots.
	epoch uint64

	// op1 is the pooled one-op slice Update commits through.
	op1 [1]BatchOp

	// Commit-delta capture (watch.go): roots names the main-tree root
	// views (built at Preprocess, read-only after); every sink in sinks
	// receives one pooled CommitDelta per commit, capSet holds the
	// per-tree capture slots propagation fills, capture is capSet while a
	// sink is subscribed and nil otherwise, and cdFree is the record
	// freelist.
	roots   []rootView
	rootIdx map[string]int
	sinks   []CommitSink
	capSet  *captureSet
	capture *captureSet
	cdFree  chan *CommitDelta

	n int // current database size (sum of distinct-tuple counts, per original relation)
	m int // threshold base M with ⌊M/4⌋ ≤ N < M

	preprocessed bool

	// Stats counters, and the rows written to base relations (writeBase) and
	// by the refills of materializeAll (Writes).
	stats                    Stats
	baseWrites, refillWrites int64
}

// Stats reports maintenance activity counters. The root package publishes
// it as ivmeps.Stats, and the service's stats reply encodes it with these
// JSON names.
type Stats struct {
	Updates int64 `json:"updates"`
	// MinorRebalances counts the partition keys that changed side: a
	// heavy key moved into its light part, and a light key moved out — in
	// the light step of the commit that drove it to 3⁄2·θ, whose own rows
	// never enter the light part.
	MinorRebalances int64 `json:"minor_rebalances"`
	// MajorRebalances counts the commits that moved M to restore
	// ⌊M/4⌋ ≤ N < M, and the forced Rebalance calls. Each recomputes every
	// view from the base relations, which is all such a commit writes
	// before it, except a commit's on a forest without a partition, where
	// no view reads θ: it propagates and moves M.
	MajorRebalances int64 `json:"major_rebalances"`
	// ViewDeltas counts the view rows that commits' propagation wrote,
	// the light step of each minor rebalance included. A major
	// rebalance's refill of every view, the writes to light parts and
	// the writes to base relations are not counted, so a commit that
	// crosses a major-rebalance trigger of a forest with a partition
	// counts none; nor is an index-backed view, which its leaf's write
	// keeps and which is never written itself.
	ViewDeltas int64 `json:"view_deltas"`
	// Batches counts commits — every Insert, Delete, Apply, or Commit call
	// that published an epoch, a single-tuple update being a one-op commit
	// — and BatchRelations the distinct relations with a net
	// effect (ops that did not cancel out within the commit), summed over
	// those commits: BatchRelations/Batches is the mean effective fan-out
	// of the ingest stream across the query's relations.
	Batches        int64 `json:"batches"`
	BatchRelations int64 `json:"batch_relations"`
}

// relEntry is one row of the relation table: an original relation symbol
// with its occurrences in atom order (each a relRoutes — the occurrence's
// base relation, partitions and propagation routes, routes.go) and the
// pooled validation state of commits (batch.go): the distinct-tuple key set
// and group list are reset, capacity kept, rather than reallocated across
// batches.
type relEntry struct {
	name    string
	arity   int
	occs    []*relRoutes
	touched bool          // entry is on e.batchTouched for the staged batch
	val     relation.Keys // the staged batch's distinct tuples, numbered as groups
	groups  []batchGroup
}

// nodeInfo is one node's static metadata for enumeration and routing.
type nodeInfo struct {
	node *viewtree.Node
	// tree is the dense id of the node's view tree — the main trees in
	// forest order, then each indicator's All and L tree; for a main tree,
	// the index of its root view and of its commit-delta capture slot.
	tree int
	// frozenAs tells a snapshot capture how to freeze the node: the ID
	// of the first main-tree node backed by the same relation (the node's
	// own ID when it is that node), or -1 for the nodes of indicator trees,
	// which enumeration never reaches.
	frozenAs int
	slots    []int       // binding slot per schema variable
	direct   bool        // the subtree's free variables ⊆ schema: enumerate the node's relation directly
	grounded bool        // the node has an ∃H child: enumerate per heavy key (Figure 13)
	kids     []*nodeInfo // children excluding the ∃H child

	// sumKey marks an index-backed view (markIndexBacked): the key of the
	// index of its child's relation it is read off — the view's variables, in
	// that index's order — and sumSlots their binding slots. Both are nil for
	// every other node.
	sumKey   tuple.Schema
	sumSlots []int

	// Structural context: the schema positions whose variables occur in the
	// parent view's schema. These (and only these) are bound by ancestors
	// when this node's cursor opens; using the runtime bound-set instead
	// would wrongly absorb stale bindings left by sibling Union operands.
	ctxSlot   []int
	ctxSchema tuple.Schema
	freshPos  []int
	freshSlot []int

	// The node's scratch in an enumeration context (enumCtx.vals, .flags):
	// vals[keyOff:] holds the len(ctxSlot) values of its context key,
	// vals[auxOff:] the len(slots) values of a direct lookup's probe tuple
	// or, for a grounded node, the len(freshSlot) bindings lookupUnder saves,
	// whose bound flags go to flags[flagOff:].
	keyOff, auxOff, flagOff int
}

// New creates an engine for a hierarchical query. The query must be
// hierarchical, must have at least one atom with a non-empty schema, and
// every atom must have distinct variables.
func New(q *query.Query, opts Options) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !q.IsHierarchical() {
		return nil, fmt.Errorf("core: query is not hierarchical: %s (the paper's algorithms require hierarchical input)", q)
	}
	if opts.Epsilon < 0 || opts.Epsilon > 1 {
		return nil, fmt.Errorf("core: epsilon %v outside [0, 1]", opts.Epsilon)
	}
	e := &Engine{
		orig:   q.Clone(),
		q:      q.Clone(),
		opts:   opts,
		relIdx: map[string]int{},
		slot:   map[tuple.Variable]int{},
		m:      1,
	}
	// The relation table, one entry per original symbol in first-occurrence
	// order and one occurrence per atom. A repeated symbol is rewritten to
	// one relation per occurrence (footnote 2: an update to it is applied
	// per occurrence). occOf resolves the forest's leaves below; after New
	// the table is only reached by RelID.
	repeated := q.HasRepeatedSymbols()
	occOf := map[string]*relRoutes{}
	for i := range e.q.Atoms {
		a := &e.q.Atoms[i]
		id := e.relIdx[a.Rel]
		if id == 0 {
			e.relTab = append(e.relTab, relEntry{name: a.Rel, arity: len(a.Vars)})
			id = len(e.relTab)
			e.relTab[id-1].val.Reset(len(a.Vars))
			e.relIdx[a.Rel] = id
		}
		re := &e.relTab[id-1]
		if repeated {
			a.Rel = fmt.Sprintf("%s__occ%d", re.name, len(re.occs)+1)
		}
		rt := &relRoutes{base: relation.New(a.Rel, a.Vars), countsN: len(re.occs) == 0}
		occOf[a.Rel] = rt
		re.occs = append(re.occs, rt)
	}

	var forest *viewtree.Forest
	var err error
	if opts.PlainViewTree {
		forest, err = viewtree.BuildVTOnly(e.q, opts.Mode)
	} else {
		forest, err = viewtree.BuildOpts(e.q, opts.Mode, viewtree.BuildOptions{NoAuxViews: opts.NoAuxViews})
	}
	if err != nil {
		return nil, err
	}
	e.forest = forest

	e.rels = make([]*relation.Relation, forest.NumNodes)
	e.info = make([]nodeInfo, forest.NumNodes)
	e.plans = make([]*updPlan, forest.NumNodes)
	e.fills = make([][]viewFill, forest.NumNodes)
	e.filled = make([]bool, forest.NumNodes)
	e.writer = make([]*viewtree.Node, forest.NumNodes)
	// ∃H relations, one per indicator, behind each of its reference leaves.
	for _, ind := range forest.Indicators {
		h := relation.New(ind.Name, ind.Keys)
		for _, ref := range ind.Refs {
			e.rels[ref.ID] = h
		}
	}

	// Variable slots.
	e.vars = e.q.Vars()
	e.ubind = make([]tuple.Value, len(e.vars))
	for i, v := range e.vars {
		e.slot[v] = i
	}
	for _, v := range e.q.Free {
		e.freeSlots = append(e.freeSlots, e.slot[v])
	}

	// Node metadata for all trees, numbering the trees as it goes.
	trees := forest.Trees()
	mainTrees := len(trees)
	for _, ind := range forest.Indicators {
		trees = append(trees, ind.All, ind.L)
	}
	// A class's relation is written through the edges of one node, its writer.
	// The only other edges to touch the relation are those into a ∃-child,
	// which probe it to see the support change: the first ∃-child of the class
	// is therefore the writer — failing one, the canonical node — so that a
	// later ∃-child's edge, propagated after the writer's (buildRoutes lists
	// leaves in node-ID order), probes the written view. Nodes come in ID
	// order, the canonical node first.
	for tree, root := range trees {
		walkNodes(root, func(n *viewtree.Node) {
			switch {
			case n.Kind == viewtree.Atom:
				e.rels[n.ID] = occOf[n.Rel].base
			case n.Kind == viewtree.LightAtom:
				e.rels[n.ID] = occOf[n.Rel].partition(n).p.Light()
			case n.Kind == viewtree.View && n.Canon == n:
				e.rels[n.ID], e.writer[n.ID] = relation.New(n.Name, n.Schema), n
			case n.Kind == viewtree.View:
				e.rels[n.ID] = e.rels[n.Canon.ID]
				if n.Exists && !e.writer[n.Canon.ID].Exists {
					e.writer[n.Canon.ID] = n
				}
			}
			e.buildInfo(n).tree = tree
		})
	}
	e.markIndexBacked(mainTrees)
	firstNode := map[*relation.Relation]int{}
	for id := range e.info {
		inf := &e.info[id]
		inf.frozenAs = -1
		if inf.tree >= mainTrees {
			continue
		}
		inf.frozenAs = id
		if first, shared := firstNode[e.rels[id]]; shared {
			inf.frozenAs = first
		} else {
			firstNode[e.rels[id]] = id
		}
	}
	e.ectx = e.newEnumCtx(e.rels, nil) // after buildInfo has sized the scratch; Preprocess sets sums
	return e, nil
}

// markIndexBacked finds the view classes that are an index their child's
// relation keeps anyway, and gives them no relation of their own. A view
// V(S)[C(S, X)] over one leaf — a base relation or a light part — is
// Σ_X C(S, X), which the bucket of C's index on exactly S holds
// (relation.Index.Sum), as long as every reader probes V with its whole key:
// every sibling's schema holds S, so each plan of the parent binds all of S
// before it reads V (or seeds with V, reading the index's keys), and in a
// main tree the parent's schema holds S, so enumeration looks V up and opens
// it under a whole key. A tree root is read whole and stays materialized,
// and so does a class any node of which fails a condition. An index-backed
// node's edges write nothing and count no view write; one into a ∃-child
// reads the support change off the sum its child's write left.
func (e *Engine) markIndexBacked(mainTrees int) {
	for id := range e.info {
		if inf := &e.info[id]; inf.node.Kind == viewtree.View {
			inf.sumKey = e.sumKeyOf(inf.node, inf.tree < mainTrees)
		}
	}
	for id := range e.info { // a class is backed only if every node of it can be
		if n := e.info[id].node; n.Kind == viewtree.View && e.info[id].sumKey == nil {
			e.info[n.Canon.ID].sumKey = nil
		}
	}
	for id := range e.info {
		inf := &e.info[id]
		n := inf.node
		if n.Kind != viewtree.View || inf.sumKey == nil {
			continue
		}
		if inf.sumKey = e.info[n.Canon.ID].sumKey; inf.sumKey == nil {
			continue
		}
		e.rels[id], e.writer[n.Canon.ID] = e.rels[n.Children[0].ID], nil
		inf.sumSlots = inf.slots
		if !inf.sumKey.Equal(n.Schema) {
			inf.sumSlots = make([]int, len(inf.sumKey))
			for i, v := range inf.sumKey {
				inf.sumSlots[i] = e.slot[v]
			}
		}
	}
}

// sumKeyOf returns the key of the index view n may be read off
// (markIndexBacked), or nil: an index its leaf's relation has on exactly n's
// variables — a light part's on its partition key, a base relation's on a
// partition key — or, in a main tree, the one enumeration builds on it
// (enumIndexes), as the canonical node of n's class, which has n's leaf,
// found it.
func (e *Engine) sumKeyOf(n *viewtree.Node, main bool) tuple.Schema {
	if n.Parent == nil || len(n.Children) != 1 || len(n.Schema) == 0 || main && !n.Parent.Schema.ContainsAll(n.Schema) {
		return nil
	}
	c := n.Children[0]
	if c.Kind != viewtree.Atom && c.Kind != viewtree.LightAtom || !c.Schema.ContainsAll(n.Schema) {
		return nil
	}
	for _, s := range n.Parent.Children {
		if !s.Schema.ContainsAll(n.Schema) {
			return nil
		}
	}
	switch {
	case n.Canon != n:
		return e.info[n.Canon.ID].sumKey
	case e.rels[c.ID].Index(n.Schema) != nil:
		return n.Schema
	case main && len(n.Schema) < len(c.Schema):
		return c.Schema.Intersect(n.Schema)
	}
	return nil
}

// Writes returns the rows commits wrote to base relations, and the rows the
// refills of every view, light part and ∃H wrote — Preprocess's and every
// major rebalance's — as each holds them once filled. With Stats.ViewDeltas
// they are every row the engine writes.
func (e *Engine) Writes() (base, refill int64) { return e.baseWrites, e.refillWrites }

// buildInfo fills info[n.ID].
func (e *Engine) buildInfo(n *viewtree.Node) *nodeInfo {
	inf := &e.info[n.ID]
	inf.node = n
	for _, v := range n.Schema {
		inf.slots = append(inf.slots, e.slot[v])
	}
	// direct: every free variable of the subtree is in the node's schema.
	inf.direct = true
	var walk func(m *viewtree.Node)
	walk = func(m *viewtree.Node) {
		if m.Kind == viewtree.IndicatorRef {
			return
		}
		for _, v := range m.Schema {
			if e.q.Free.Contains(v) && !n.Schema.Contains(v) {
				inf.direct = false
			}
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	for _, c := range n.Children {
		if c.Kind == viewtree.IndicatorRef {
			inf.grounded = true
		} else {
			inf.kids = append(inf.kids, &e.info[c.ID])
		}
	}
	for i, v := range n.Schema {
		if n.Parent != nil && n.Parent.Schema.Contains(v) {
			inf.ctxSlot = append(inf.ctxSlot, inf.slots[i])
			inf.ctxSchema = append(inf.ctxSchema, v)
		} else {
			inf.freshPos = append(inf.freshPos, i)
			inf.freshSlot = append(inf.freshSlot, inf.slots[i])
		}
	}
	inf.keyOff = e.scratchVals
	inf.auxOff = inf.keyOff + len(inf.ctxSlot)
	e.scratchVals = inf.auxOff
	switch {
	case inf.grounded:
		inf.flagOff = e.scratchFlags
		e.scratchVals += len(inf.freshSlot)
		e.scratchFlags += len(inf.freshSlot)
	case inf.direct:
		e.scratchVals += len(inf.slots)
	}
	return inf
}

// indicatorRels returns an indicator's materialized All and L root views and
// its ∃H relation (the relation behind every one of its reference leaves).
func (e *Engine) indicatorRels(ind *viewtree.Indicator) (all, l, h *relation.Relation) {
	return e.rels[ind.All.ID], e.rels[ind.L.ID], e.rels[ind.Refs[0].ID]
}

// Query returns the engine's (original) query.
func (e *Engine) Query() *query.Query { return e.orig.Clone() }

// Epsilon returns the trade-off parameter.
func (e *Engine) Epsilon() float64 { return e.opts.Epsilon }

// Mode returns the evaluation mode.
func (e *Engine) Mode() viewtree.Mode { return e.opts.Mode }

// N returns the current database size (sum of distinct tuple counts over
// the original relations).
func (e *Engine) N() int { return e.n }

// ThresholdBase returns M, the rebalancing threshold base with
// ⌊M/4⌋ ≤ N < M (Section 6.2).
func (e *Engine) ThresholdBase() int { return e.m }

// Theta returns the current partition threshold θ = M^ε.
func (e *Engine) Theta() float64 { return relation.Threshold(e.m, e.opts.Epsilon) }

// Stats returns activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// Epoch returns the number of committed write operations (Preprocess
// counts as the first). A Snapshot's Epoch identifies the committed state
// it observes.
func (e *Engine) Epoch() uint64 { return e.epoch }

// Work returns the cumulative count of enumeration operations (cursor
// advances and multiplicity lookups). Differences between successive reads
// measure per-tuple delay in machine-independent units.
func (e *Engine) Work() int64 { return e.ectx.work }

// Close does nothing: an engine holds no goroutines or other resources
// beyond its memory.
//
// Deprecated: no effect; kept so existing callers compile.
func (e *Engine) Close() {}

// Forest exposes the constructed view trees (read-only; for inspection and
// tests).
func (e *Engine) Forest() *viewtree.Forest { return e.forest }

// BaseRelation returns the engine's materialized copy of an original
// relation (its first occurrence), or nil. Callers must not modify it.
func (e *Engine) BaseRelation(name string) *relation.Relation {
	id := e.relIdx[name]
	if id == 0 {
		return nil
	}
	return e.relTab[id-1].occs[0].base
}

// recomputeN refreshes the database size from the base relations, each
// original relation counted once.
func (e *Engine) recomputeN() {
	n := 0
	for i := range e.relTab {
		n += e.relTab[i].occs[0].base.Size()
	}
	e.n = n
}
