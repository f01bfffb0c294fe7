package core

import (
	"fmt"

	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// The enumeration machinery of Section 5. Iterators share a binding array
// (one slot per query variable): open() positions an iterator under the
// currently bound context variables, next() binds the iterator's fresh
// variables and returns the tuple's multiplicity, lookup() returns the
// multiplicity of the currently bound tuple, and close() releases the
// iterator's bindings.
//
// Distinct-tuple semantics across overlapping streams uses the Union
// algorithm (Figure 15); combinations across independent streams use the
// Product algorithm (Figure 16).
//
// All mutable enumeration state — the binding array, the bound flags, the
// work counter, and the node→relation resolution — lives in an enumCtx, so
// an enumeration belongs either to the engine itself (live relations,
// writer-goroutine only) or to a Snapshot (frozen relations, own bindings,
// concurrent with writers; snapshot.go).

// enumCtx is one enumeration context: the binding slots shared by a tree of
// iterators, the delay-work counter, and the relation resolver. The
// engine's own context resolves nodes to the live relations and may only be
// used from the writer goroutine; a snapshot's context resolves nodes to
// the frozen relations captured at snapshot time and is independent of
// concurrent updates.
type enumCtx struct {
	e     *Engine
	bind  []tuple.Value
	bound []bool
	work  *int64
	// rels, when non-nil, is a snapshot's frozen node→relation capture;
	// nil resolves live through Engine.relOf.
	rels map[*viewtree.Node]*relation.Relation
}

func (c *enumCtx) tick() { *c.work++ }

// relOf resolves the materialized relation backing a node, frozen or live.
func (c *enumCtx) relOf(n *viewtree.Node) *relation.Relation {
	if c.rels == nil {
		return c.e.relOf(n)
	}
	r := c.rels[n]
	if r == nil {
		panic(fmt.Sprintf("core: snapshot did not capture a relation for node %s", n.Name))
	}
	return r
}

// infoOf returns the node's enumeration metadata. Every node of every tree
// is covered at New time; a miss is a bug, and building lazily here would
// write the e.info map that snapshot contexts read lock-free from other
// goroutines, so it panics rather than repairs.
func (c *enumCtx) infoOf(n *viewtree.Node) *nodeInfo {
	inf, ok := c.e.info[n]
	if !ok {
		panic(fmt.Sprintf("core: enumeration of node %s with no metadata (not built at New)", n.Name))
	}
	return inf
}

type resultIter interface {
	open()
	next() (int64, bool)
	lookup() int64
	close()
	// rebind re-asserts the iterator's current tuple into the shared
	// binding array. Streams from different Union operands interleave and
	// overwrite each other's bindings (each operand binds the same free
	// variables); before a suspended iterator advances, its non-advancing
	// parts must re-assert their current values.
	rebind()
}

// ---------------------------------------------------------------------------
// Node iterators (Figures 13 and 14).

type nodeMode int

const (
	mDirect nodeMode = iota
	mProduct
	mGrounded
)

// nodeIter enumerates the relation represented by one view (sub)tree.
type nodeIter struct {
	c   *enumCtx
	inf *nodeInfo

	mode nodeMode
	rel  *relation.Relation

	// Cursor state over σ_ctx(rel).
	freshPos  []int               // schema positions bound by this iterator
	freshSlot []int               // binding slots of those positions
	scan      *relation.Entry     // whole-relation cursor
	icur      *relation.IndexNode // index cursor
	useIndex  bool
	single    bool // all schema vars context-bound: at most one tuple
	singleOK  bool
	singleMul int64

	// Product state (mProduct): child iterators, re-opened per view tuple.
	kids  []*nodeIter
	prod  *prodIter
	onTup bool        // a view tuple is currently bound
	curT  tuple.Tuple // current cursor tuple (for rebind)

	// Grounded state (mGrounded): union over per-heavy-key instances.
	buckets *unionIter
}

func (c *enumCtx) newNodeIter(n *viewtree.Node) *nodeIter {
	inf := c.infoOf(n)
	it := &nodeIter{c: c, inf: inf}
	switch {
	case inf.indChild != nil:
		it.mode = mGrounded
	case inf.direct:
		it.mode = mDirect
	default:
		it.mode = mProduct
		for _, ch := range inf.kids {
			it.kids = append(it.kids, c.newNodeIter(ch))
		}
	}
	return it
}

// openCursor positions the iterator's relation cursor under the node's
// structural context: the schema variables shared with the parent view,
// whose values ancestors have bound. (Using the runtime bound-set instead
// would absorb stale bindings from sibling Union operands.)
func (it *nodeIter) openCursor() {
	c := it.c
	inf := it.inf
	it.rel = c.relOf(inf.node)
	it.freshPos = inf.freshPos
	it.freshSlot = inf.freshSlot
	var ctxKey tuple.Tuple
	for i, s := range inf.ctxSlot {
		if !c.bound[s] {
			panic(fmt.Sprintf("core: opening %s with unbound context variable %s", inf.node.Name, inf.ctxSchema[i]))
		}
		ctxKey = append(ctxKey, c.bind[s])
	}
	it.single, it.singleOK = false, false
	it.useIndex = false
	switch {
	case len(inf.ctxSchema) == 0:
		it.scan = it.rel.First()
	case len(it.freshPos) == 0:
		it.single = true
		it.singleMul = it.rel.Mult(ctxKey)
		it.singleOK = it.singleMul != 0
	default:
		it.useIndex = true
		ix := it.rel.EnsureIndex(inf.ctxSchema)
		it.icur = ix.FirstMatch(ctxKey)
	}
}

// cursorNext returns the next matching entry, or nil.
func (it *nodeIter) cursorNext() (tuple.Tuple, int64, bool) {
	it.c.tick()
	if it.single {
		if it.singleOK {
			it.singleOK = false
			return nil, it.singleMul, true
		}
		return nil, 0, false
	}
	if it.useIndex {
		if it.icur == nil {
			return nil, 0, false
		}
		ent := it.icur.Entry()
		it.icur = it.icur.Next()
		return ent.Tuple, ent.Mult, true
	}
	if it.scan == nil {
		return nil, 0, false
	}
	ent := it.scan
	it.scan = it.rel.Next(ent)
	return ent.Tuple, ent.Mult, true
}

// bindFresh writes a view tuple's fresh positions into the binding array.
func (it *nodeIter) bindFresh(t tuple.Tuple) {
	c := it.c
	for k, pos := range it.freshPos {
		s := it.freshSlot[k]
		c.bind[s] = t[pos]
		c.bound[s] = true
	}
}

func (it *nodeIter) unbindFresh() {
	for _, s := range it.freshSlot {
		it.c.bound[s] = false
	}
}

func (it *nodeIter) open() {
	it.openCursor()
	switch it.mode {
	case mGrounded:
		it.openBuckets()
	case mProduct:
		it.onTup = false
	}
}

// openBuckets grounds the heavy indicator (Figure 13, lines 6–11): one
// instance per tuple of σ_ctx(V); the node's view V is a subset of ∃H with
// join support, so grounding over V visits exactly the productive heavy
// keys (proof of Proposition 22).
func (it *nodeIter) openBuckets() {
	var subs []resultIter
	for t, _, ok := it.cursorNext(); ok; t, _, ok = it.cursorNext() {
		g := &groundedInst{c: it.c, inf: it.inf}
		g.h = make(tuple.Tuple, len(it.freshPos))
		for k, pos := range it.freshPos {
			g.h[k] = t[pos]
		}
		g.slots = append([]int(nil), it.freshSlot...)
		for _, ch := range it.inf.kids {
			g.kids = append(g.kids, it.c.newNodeIter(ch))
		}
		subs = append(subs, g)
	}
	it.buckets = newUnion(subs)
	it.buckets.open()
}

func (it *nodeIter) next() (int64, bool) {
	switch it.mode {
	case mGrounded:
		return it.buckets.next()

	case mDirect:
		t, m, ok := it.cursorNext()
		if !ok {
			return 0, false
		}
		it.curT = t
		it.bindFresh(t)
		return m, true

	default: // mProduct
		for {
			if !it.onTup {
				t, _, ok := it.cursorNext()
				if !ok {
					return 0, false
				}
				it.curT = t
				it.bindFresh(t)
				it.onTup = true
				it.prod = newProd(it.kidsAsIters())
				it.prod.open()
			}
			if m, ok := it.prod.next(); ok {
				return m, true
			}
			it.prod.close()
			it.onTup = false
		}
	}
}

func (it *nodeIter) kidsAsIters() []resultIter {
	out := make([]resultIter, len(it.kids))
	for i, k := range it.kids {
		out[i] = k
	}
	return out
}

func (it *nodeIter) rebind() {
	switch it.mode {
	case mGrounded:
		if it.buckets != nil {
			it.buckets.rebind()
		}
	case mDirect:
		if it.curT != nil {
			it.bindFresh(it.curT)
		}
	default: // mProduct
		if it.onTup {
			it.bindFresh(it.curT)
			it.prod.rebind()
		}
	}
}

func (it *nodeIter) close() {
	switch it.mode {
	case mGrounded:
		if it.buckets != nil {
			it.buckets.close()
			it.buckets = nil
		}
	case mProduct:
		if it.onTup {
			it.prod.close()
			it.onTup = false
		}
	}
	it.unbindFresh()
}

// lookup returns the multiplicity, in the relation represented by this
// subtree, of the tuple formed by the currently bound variables.
func (it *nodeIter) lookup() int64 {
	c := it.c
	inf := it.inf
	if inf.indChild != nil {
		// Grounded lookup: sum over matching heavy keys (the Union
		// algorithm's bucket lookups; O(N^(1−ε)) buckets).
		return c.groundedLookup(inf)
	}
	if inf.direct || len(inf.node.Children) == 0 {
		c.tick()
		t := make(tuple.Tuple, len(inf.slots))
		for i, s := range inf.slots {
			if !c.bound[s] {
				panic(fmt.Sprintf("core: lookup of %s with unbound variable %s", inf.node.Name, inf.schema[i]))
			}
			t[i] = c.bind[s]
		}
		return c.relOf(inf.node).Mult(t)
	}
	m := int64(1)
	for _, ch := range inf.kids {
		cm := c.lookupNode(ch)
		if cm == 0 {
			return 0
		}
		m *= cm
	}
	return m
}

func (c *enumCtx) lookupNode(n *viewtree.Node) int64 {
	it := nodeIter{c: c, inf: c.infoOf(n)}
	return it.lookup()
}

func (c *enumCtx) groundedLookup(inf *nodeInfo) int64 {
	rel := c.relOf(inf.node)
	// Context is structural (the variables shared with the parent view);
	// the remaining key variables are summed over. Consulting the runtime
	// bound-set here would wrongly treat a stale binding of a summed heavy
	// variable as a restriction.
	ctxSchema := inf.ctxSchema
	freshPos := inf.freshPos
	freshSlot := inf.freshSlot
	var ctxKey tuple.Tuple
	for i, s := range inf.ctxSlot {
		if !c.bound[s] {
			panic(fmt.Sprintf("core: grounded lookup of %s with unbound context variable %s", inf.node.Name, inf.ctxSchema[i]))
		}
		ctxKey = append(ctxKey, c.bind[s])
	}
	total := int64(0)
	sum := func(t tuple.Tuple, _ int64) {
		c.tick()
		// Bind the grounding, product the children, restore.
		saved := make([]tuple.Value, len(freshSlot))
		savedB := make([]bool, len(freshSlot))
		for k, s := range freshSlot {
			saved[k], savedB[k] = c.bind[s], c.bound[s]
			c.bind[s] = t[freshPos[k]]
			c.bound[s] = true
		}
		m := int64(1)
		for _, ch := range inf.kids {
			cm := c.lookupNode(ch)
			if cm == 0 {
				m = 0
				break
			}
			m *= cm
		}
		total += m
		for k, s := range freshSlot {
			c.bind[s], c.bound[s] = saved[k], savedB[k]
		}
	}
	if len(ctxSchema) == 0 {
		rel.ForEach(sum)
	} else if len(freshPos) == 0 {
		if m := rel.Mult(ctxKey); m != 0 {
			sum(ctxKey, m)
		}
	} else {
		rel.EnsureIndex(ctxSchema).ForEachMatch(ctxKey, sum)
	}
	return total
}

// ---------------------------------------------------------------------------
// Grounded instances: one per heavy key (Figure 13, lines 8–11).

type groundedInst struct {
	c     *enumCtx
	inf   *nodeInfo
	h     tuple.Tuple // grounding values for the fresh key slots
	slots []int       // binding slots for h
	kids  []*nodeIter
	prod  *prodIter
}

func (g *groundedInst) bindH() {
	for k, s := range g.slots {
		g.c.bind[s] = g.h[k]
		g.c.bound[s] = true
	}
}

func (g *groundedInst) open() {
	g.bindH()
	subs := make([]resultIter, len(g.kids))
	for i, k := range g.kids {
		subs[i] = k
	}
	g.prod = newProd(subs)
	g.prod.open()
}

func (g *groundedInst) next() (int64, bool) {
	g.bindH()
	return g.prod.next()
}

func (g *groundedInst) rebind() {
	g.bindH()
	g.prod.rebind()
}

func (g *groundedInst) lookup() int64 {
	c := g.c
	saved := make([]tuple.Value, len(g.slots))
	savedB := make([]bool, len(g.slots))
	for k, s := range g.slots {
		saved[k], savedB[k] = c.bind[s], c.bound[s]
		c.bind[s] = g.h[k]
		c.bound[s] = true
	}
	m := int64(1)
	for _, ch := range g.kids {
		cm := ch.lookup()
		if cm == 0 {
			m = 0
			break
		}
		m *= cm
	}
	for k, s := range g.slots {
		c.bind[s], c.bound[s] = saved[k], savedB[k]
	}
	return m
}

func (g *groundedInst) close() {
	if g.prod != nil {
		g.prod.close()
	}
	for _, s := range g.slots {
		g.c.bound[s] = false
	}
}

// ---------------------------------------------------------------------------
// Product (Figure 16): odometer over independent iterators.

type prodIter struct {
	subs   []resultIter
	mults  []int64
	primed bool
	dead   bool
}

func newProd(subs []resultIter) *prodIter {
	return &prodIter{subs: subs, mults: make([]int64, len(subs))}
}

func (p *prodIter) open() {
	for _, s := range p.subs {
		s.open()
	}
	p.primed, p.dead = false, false
}

func (p *prodIter) product() int64 {
	m := int64(1)
	for _, x := range p.mults {
		m *= x
	}
	return m
}

func (p *prodIter) next() (int64, bool) {
	if p.dead {
		return 0, false
	}
	if len(p.subs) == 0 {
		// Empty product: a single empty tuple with multiplicity 1.
		p.dead = true
		return 1, true
	}
	if !p.primed {
		for i, s := range p.subs {
			m, ok := s.next()
			if !ok {
				p.dead = true
				return 0, false
			}
			p.mults[i] = m
		}
		p.primed = true
		return p.product(), true
	}
	// Streams from other Union operands may have clobbered our children's
	// bindings since the last call; re-assert them before advancing.
	p.rebind()
	for i := len(p.subs) - 1; i >= 0; i-- {
		if m, ok := p.subs[i].next(); ok {
			p.mults[i] = m
			for j := i + 1; j < len(p.subs); j++ {
				p.subs[j].close()
				p.subs[j].open()
				mj, ok := p.subs[j].next()
				if !ok {
					p.dead = true
					return 0, false
				}
				p.mults[j] = mj
			}
			return p.product(), true
		}
	}
	p.dead = true
	return 0, false
}

func (p *prodIter) rebind() {
	if !p.primed || p.dead {
		return
	}
	for _, s := range p.subs {
		s.rebind()
	}
}

func (p *prodIter) lookup() int64 {
	m := int64(1)
	for _, s := range p.subs {
		sm := s.lookup()
		if sm == 0 {
			return 0
		}
		m *= sm
	}
	return m
}

func (p *prodIter) close() {
	for _, s := range p.subs {
		s.close()
	}
}

// ---------------------------------------------------------------------------
// Union (Figure 15, after Durand–Strozecki): enumerate the distinct tuples
// of the union of n possibly-overlapping streams, with the multiplicity of
// each emitted tuple summed across all operands. The delay is the sum of
// the operand delays plus O(n) lookups per tuple.

type unionIter struct {
	subs []resultIter
	last int // operand that produced the last emission, -1 if none
}

func newUnion(subs []resultIter) *unionIter { return &unionIter{subs: subs, last: -1} }

func (u *unionIter) open() {
	for _, s := range u.subs {
		s.open()
	}
	u.last = -1
}

func (u *unionIter) rebind() {
	if u.last >= 0 {
		u.subs[u.last].rebind()
	}
}

func (u *unionIter) next() (int64, bool) {
	return u.nextK(len(u.subs) - 1)
}

// nextK enumerates the union of subs[0..k].
func (u *unionIter) nextK(k int) (int64, bool) {
	if k < 0 {
		return 0, false
	}
	if k == 0 {
		m, ok := u.subs[0].next()
		if ok {
			u.last = 0
		}
		return m, ok
	}
	for {
		m, ok := u.nextK(k - 1)
		if ok {
			if u.subs[k].lookup() == 0 {
				// Fresh w.r.t. subs[k]; multiplicity already summed over
				// subs[0..k-1] by the recursive call, and u.last was set by
				// the operand that emitted the candidate.
				return m, true
			}
			// Duplicate: emit the next tuple of subs[k] instead; the
			// candidate will be (or was already) emitted via subs[k]'s
			// own stream.
			mk, okk := u.subs[k].next()
			if okk {
				u.last = k
				return mk + u.lookupBelow(k), true
			}
			continue // subs[k] exhausted: candidate already emitted; skip it
		}
		mk, okk := u.subs[k].next()
		if !okk {
			return 0, false
		}
		u.last = k
		return mk + u.lookupBelow(k), true
	}
}

func (u *unionIter) lookupBelow(k int) int64 {
	m := int64(0)
	for i := 0; i < k; i++ {
		m += u.subs[i].lookup()
	}
	return m
}

func (u *unionIter) lookup() int64 {
	m := int64(0)
	for _, s := range u.subs {
		m += s.lookup()
	}
	return m
}

func (u *unionIter) close() {
	for _, s := range u.subs {
		s.close()
	}
}

// ---------------------------------------------------------------------------
// Top-level result iterator.

// Iterator enumerates the distinct tuples of the query result with their
// multiplicities: a Product across connected components of a Union across
// each component's view trees.
type Iterator struct {
	c    *enumCtx
	top  resultIter
	out  tuple.Tuple
	done bool
}

// result opens an iterator over the context's view of the query result.
func (c *enumCtx) result() *Iterator {
	// Reset bindings.
	for i := range c.bound {
		c.bound[i] = false
	}
	var comps []resultIter
	for _, comp := range c.e.forest.Components {
		var trees []resultIter
		for _, t := range comp.Trees {
			trees = append(trees, c.newNodeIter(t))
		}
		if len(trees) == 1 {
			comps = append(comps, trees[0])
		} else {
			comps = append(comps, newUnion(trees))
		}
	}
	var top resultIter
	if len(comps) == 1 {
		top = comps[0]
	} else {
		top = newProd(comps)
	}
	top.open()
	return &Iterator{c: c, top: top, out: make(tuple.Tuple, len(c.e.freeSlots))}
}

// Result opens an iterator over the current query result, reading the live
// relations. The iterator is invalidated by updates; enumerate before
// updating again (Section 1's model enumerates between update batches), or
// take a Snapshot to enumerate concurrently with updates.
func (e *Engine) Result() *Iterator {
	if !e.preprocessed {
		panic(ErrNotBuilt)
	}
	return e.ectx.result()
}

// Next returns the next distinct result tuple (over the query's free
// variables) and its multiplicity. The returned tuple is only valid until
// the next call; clone it to retain.
func (it *Iterator) Next() (tuple.Tuple, int64, bool) {
	if it.done {
		return nil, 0, false
	}
	m, ok := it.top.next()
	if !ok {
		it.done = true
		return nil, 0, false
	}
	c := it.c
	for i, s := range c.e.freeSlots {
		it.out[i] = c.bind[s]
	}
	return it.out, m, true
}

// Close releases the iterator's bindings.
func (it *Iterator) Close() {
	if !it.done {
		it.top.close()
		it.done = true
	}
}

// Enumerate calls yield for every distinct result tuple with its
// multiplicity, stopping early if yield returns false. It reads the live
// relations and must not run concurrently with updates; use Snapshot for
// that.
func (e *Engine) Enumerate(yield func(t tuple.Tuple, m int64) bool) {
	it := e.Result()
	defer it.Close()
	for {
		t, m, ok := it.Next()
		if !ok {
			return
		}
		if !yield(t, m) {
			return
		}
	}
}

// ResultRelation materializes the full result; intended for tests and small
// results.
func (e *Engine) ResultRelation() *relation.Relation {
	out := relation.New(e.orig.Name, e.orig.Free)
	e.Enumerate(func(t tuple.Tuple, m int64) bool {
		out.MustAdd(t, m)
		return true
	})
	return out
}
