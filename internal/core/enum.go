package core

import (
	"fmt"

	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
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
// per-node scratch, the work counter — and the node→relation slice live in
// an enumCtx, so an enumeration belongs either to the engine itself (live
// relations, writer-goroutine only) or to a Snapshot (frozen relations, own
// bindings, concurrent with writers; snapshot.go).

// enumCtx is one enumeration context: the binding slots shared by a tree of
// iterators, the delay-work counter, and the relation of every node by
// Node.ID, with the index an index-backed node is read off (sums). The
// engine's own context holds the live relations and indexes (Engine.rels,
// Engine.sumIx) and may only be used from the writer goroutine; a snapshot's
// holds a frozen copy, whose distinct handles pinned lists for Close to
// release, and their index handles, and is independent of concurrent
// updates. The iterators cannot tell the two apart.
//
// vals and flags are the context's scratch: every node owns the region
// nodeInfo.keyOff/auxOff/flagOff name (the key ctxKey fills, the probe tuple
// of a direct lookup, the bindings lookupUnder saves), carved from the two
// arrays that also hold bind and bound, so a row costs no allocation. One
// region per node is enough because a lookup of node n only ever calls
// lookups of n's descendants, openCursor is done with its key before it
// returns, and no scratch is live across a next() return — two iterators
// over one context, sequential or nested, cannot meet in a region.
// trees holds closed Iterators' trees for reuse; open counts unclosed ones.
type enumCtx struct {
	e      *Engine
	rels   []*relation.Relation
	sums   []*relation.Index
	pinned []*relation.Relation
	bind   tuple.Tuple
	bound  []bool
	vals   tuple.Tuple
	flags  []bool
	work   int64
	trees  []Iterator
	open   int
}

func (e *Engine) newEnumCtx(rels []*relation.Relation, sums []*relation.Index) *enumCtx {
	nv := len(e.vars)
	vals := make(tuple.Tuple, nv+e.scratchVals)
	flags := make([]bool, nv+e.scratchFlags)
	return &enumCtx{e: e, rels: rels, sums: sums, bind: vals[:nv:nv], bound: flags[:nv:nv], vals: vals[nv:], flags: flags[nv:]}
}

func (c *enumCtx) tick() { c.work++ }

// bindFresh writes a view tuple's fresh positions into the binding array.
func (c *enumCtx) bindFresh(inf *nodeInfo, t tuple.Tuple) {
	for k, s := range inf.freshSlot {
		c.bind[s] = t[inf.freshPos[k]]
		c.bound[s] = true
	}
}

func (c *enumCtx) unbindFresh(inf *nodeInfo) {
	for _, s := range inf.freshSlot {
		c.bound[s] = false
	}
}

// ctxKey is the node's structural context as a probe key: the values
// ancestors have bound for the schema variables shared with the parent view.
// (Consulting the runtime bound-set instead would absorb stale bindings from
// sibling Union operands, or treat a stale binding of a summed heavy
// variable as a restriction.)
//
// The key is the node's own scratch: valid until the node's next ctxKey.
func (c *enumCtx) ctxKey(inf *nodeInfo) tuple.Tuple {
	key := c.vals[inf.keyOff : inf.keyOff+len(inf.ctxSlot)]
	for i, s := range inf.ctxSlot {
		if !c.bound[s] {
			panic(fmt.Sprintf("core: %s with unbound context variable %s", inf.node.Name, inf.ctxSchema[i]))
		}
		key[i] = c.bind[s]
	}
	return key
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
// Lookup: the multiplicity, in the relation a subtree represents, of the
// tuple formed by the currently bound variables. It reads the context and
// the node's metadata only — no iterator state — so every iterator's
// lookup() is a call to it.

func (c *enumCtx) lookup(inf *nodeInfo) int64 {
	if inf.grounded {
		// Sum over the matching heavy keys (the Union algorithm's bucket
		// lookups; O(N^(1−ε)) buckets); the key variables outside the
		// structural context are summed over.
		rel := c.rels[inf.node.ID]
		total := int64(0)
		sum := func(t tuple.Tuple, _ int64) {
			c.tick()
			total += c.lookupUnder(inf, t)
		}
		switch {
		case len(inf.ctxSchema) == 0:
			rel.ForEach(sum)
		case len(inf.freshPos) == 0:
			key := c.ctxKey(inf)
			if m := rel.Mult(key); m != 0 {
				sum(key, m)
			}
		default:
			rel.EnsureIndex(inf.ctxSchema).ForEachMatch(c.ctxKey(inf), sum)
		}
		return total
	}
	if inf.direct {
		c.tick()
		if inf.sumKey != nil {
			return c.sum(inf)
		}
		t := c.vals[inf.auxOff : inf.auxOff+len(inf.slots)]
		for i, s := range inf.slots {
			if !c.bound[s] {
				panic(fmt.Sprintf("core: lookup of %s with unbound variable %s", inf.node.Name, inf.node.Schema[i]))
			}
			t[i] = c.bind[s]
		}
		return c.rels[inf.node.ID].Mult(t)
	}
	return c.lookupKids(inf)
}

// sum is the multiplicity of the bound tuple in an index-backed node: the sum
// of its index's bucket. The key goes where ctxKey puts the context key, which
// has as many values: every variable of such a node is its parent's.
func (c *enumCtx) sum(inf *nodeInfo) int64 {
	key := c.vals[inf.keyOff : inf.keyOff+len(inf.sumSlots)]
	for i, s := range inf.sumSlots {
		if !c.bound[s] {
			panic(fmt.Sprintf("core: lookup of %s with unbound variable %s", inf.node.Name, inf.sumKey[i]))
		}
		key[i] = c.bind[s]
	}
	return c.sums[inf.node.ID].Sum(key)
}

// lookupKids multiplies the lookups of the node's children.
func (c *enumCtx) lookupKids(inf *nodeInfo) int64 {
	m := int64(1)
	for _, ch := range inf.kids {
		cm := c.lookup(ch)
		if cm == 0 {
			return 0
		}
		m *= cm
	}
	return m
}

// lookupUnder is the lookup of a grounded node under one grounding — the
// view tuple t of one heavy key: bind the grounding, multiply the
// children's lookups, restore.
func (c *enumCtx) lookupUnder(inf *nodeInfo, t tuple.Tuple) int64 {
	saved := c.vals[inf.auxOff : inf.auxOff+len(inf.freshSlot)]
	savedB := c.flags[inf.flagOff : inf.flagOff+len(inf.freshSlot)]
	for k, s := range inf.freshSlot {
		saved[k], savedB[k] = c.bind[s], c.bound[s]
	}
	c.bindFresh(inf, t)
	m := c.lookupKids(inf)
	for k, s := range inf.freshSlot {
		c.bind[s], c.bound[s] = saved[k], savedB[k]
	}
	return m
}

// ---------------------------------------------------------------------------
// Node iterators (Figures 13 and 14).

// nodeIter enumerates the relation represented by one view (sub)tree: its
// relation directly (inf.direct), per heavy key (inf.grounded), or as the
// product of its children under each view tuple.
type nodeIter struct {
	c   *enumCtx
	inf *nodeInfo
	rel *relation.Relation

	// Cursor state over σ_ctx(rel): the next entry, through ix when the
	// context binds some of the schema.
	cur       relation.ID
	ix        *relation.Index
	single    bool // all schema vars context-bound: at most one tuple
	singleOK  bool
	singleMul int64

	curT tuple.Tuple // current cursor tuple (for rebind)

	// Product state: the children's odometer, opened anew per view tuple.
	prod  *prodIter
	onTup bool // a view tuple is currently bound

	// Grounded state: union over per-heavy-key instances. insts keeps every
	// instance (and its child product) the iterator has built; a re-open
	// regrounds them in cursor order and builds more only for a context with
	// more heavy keys than any before it.
	buckets   unionIter
	insts     []*groundedInst
	grounding bool // buckets is open
}

func (c *enumCtx) newNodeIter(inf *nodeInfo) *nodeIter {
	it := &nodeIter{c: c, inf: inf}
	if !inf.grounded && !inf.direct {
		it.prod = c.newKidsProd(inf)
	}
	return it
}

// newKidsProd builds the product over fresh iterators of the node's children.
func (c *enumCtx) newKidsProd(inf *nodeInfo) *prodIter {
	subs := make([]resultIter, len(inf.kids))
	for i, ch := range inf.kids {
		subs[i] = c.newNodeIter(ch)
	}
	return newProd(subs)
}

// openCursor positions the iterator's relation cursor under the node's
// structural context.
func (it *nodeIter) openCursor() {
	inf := it.inf
	it.rel = it.c.rels[inf.node.ID]
	key := it.c.ctxKey(inf)
	it.single, it.singleOK = false, false
	it.ix = nil
	switch {
	case len(inf.ctxSchema) == 0:
		it.cur = it.rel.First()
	case len(inf.freshPos) == 0:
		it.single = true
		if inf.sumKey != nil {
			it.singleMul = it.c.sum(inf)
		} else {
			it.singleMul = it.rel.Mult(key)
		}
		it.singleOK = it.singleMul != 0
	default:
		it.ix = it.rel.EnsureIndex(inf.ctxSchema)
		it.cur = it.ix.First(key)
	}
}

// cursorNext returns the next matching entry, or false.
func (it *nodeIter) cursorNext() (tuple.Tuple, int64, bool) {
	it.c.tick()
	if it.single {
		if it.singleOK {
			it.singleOK = false
			return nil, it.singleMul, true
		}
		return nil, 0, false
	}
	id := it.cur
	if id == relation.End {
		return nil, 0, false
	}
	if it.ix != nil {
		it.cur = it.ix.Next(id)
	} else {
		it.cur = it.rel.Next(id)
	}
	t, m := it.rel.At(id)
	return t, m, true
}

func (it *nodeIter) open() {
	it.openCursor()
	it.onTup = false
	if it.inf.grounded {
		it.openBuckets()
	}
}

// openBuckets grounds the heavy indicator (Figure 13, lines 6–11): one
// instance per tuple of σ_ctx(V); the node's view V is a subset of ∃H with
// join support, so grounding over V visits exactly the productive heavy
// keys (proof of Proposition 22).
func (it *nodeIter) openBuckets() {
	subs := it.buckets.subs[:0]
	for t, _, ok := it.cursorNext(); ok; t, _, ok = it.cursorNext() {
		if len(subs) == len(it.insts) {
			it.insts = append(it.insts, &groundedInst{c: it.c, inf: it.inf, prod: it.c.newKidsProd(it.inf)})
		}
		g := it.insts[len(subs)]
		g.h = t
		subs = append(subs, g)
	}
	it.buckets.subs = subs
	it.buckets.open()
	it.grounding = true
}

func (it *nodeIter) next() (int64, bool) {
	if it.inf.grounded {
		return it.buckets.next()
	}
	for {
		if !it.onTup {
			t, m, ok := it.cursorNext()
			if !ok {
				return 0, false
			}
			it.curT = t
			it.c.bindFresh(it.inf, t)
			if it.inf.direct {
				return m, true
			}
			it.onTup = true
			it.prod.open()
		} else {
			// Resuming under a view tuple bound earlier: a sibling Union
			// operand that binds the same variables may have run since.
			it.c.bindFresh(it.inf, it.curT)
		}
		if m, ok := it.prod.next(); ok {
			return m, true
		}
		it.prod.close()
		it.onTup = false
	}
}

func (it *nodeIter) rebind() {
	switch {
	case it.inf.grounded:
		if it.grounding {
			it.buckets.rebind()
		}
	case it.inf.direct:
		if it.curT != nil {
			it.c.bindFresh(it.inf, it.curT)
		}
	case it.onTup:
		it.c.bindFresh(it.inf, it.curT)
		it.prod.rebind()
	}
}

func (it *nodeIter) close() {
	if it.grounding {
		it.buckets.close()
		it.grounding = false
	}
	if it.onTup {
		it.prod.close()
		it.onTup = false
	}
	it.c.unbindFresh(it.inf)
}

func (it *nodeIter) lookup() int64 { return it.c.lookup(it.inf) }

// ---------------------------------------------------------------------------
// Grounded instances: one per heavy key (Figure 13, lines 8–11).

type groundedInst struct {
	c    *enumCtx
	inf  *nodeInfo
	h    tuple.Tuple // the grounding: the view tuple of this heavy key
	prod *prodIter
}

func (g *groundedInst) open() {
	g.c.bindFresh(g.inf, g.h)
	g.prod.open()
}

func (g *groundedInst) next() (int64, bool) {
	g.c.bindFresh(g.inf, g.h)
	return g.prod.next()
}

func (g *groundedInst) rebind() {
	g.c.bindFresh(g.inf, g.h)
	g.prod.rebind()
}

func (g *groundedInst) lookup() int64 { return g.c.lookupUnder(g.inf, g.h) }

func (g *groundedInst) close() {
	g.prod.close()
	g.c.unbindFresh(g.inf)
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
	top  resultIter // nil once Close has handed the tree back to c
	out  tuple.Tuple
	done bool
}

// result opens an iterator over the context's view of the query result; it
// inlines, so a caller that closes the Iterator keeps it on its stack.
func (c *enumCtx) result() *Iterator {
	it := new(Iterator)
	c.openInto(it)
	return it
}

// openInto opens it, reopening a tree a closed Iterator handed back before it
// builds a new one: the open grounds its nodes anew, so a reused tree ticks
// the same cursor advances as a new one.
func (c *enumCtx) openInto(it *Iterator) {
	// Reset bindings.
	for i := range c.bound {
		c.bound[i] = false
	}
	if len(c.trees) == 0 {
		c.trees = append(c.trees, Iterator{c: c, top: c.newTop(), out: make(tuple.Tuple, len(c.e.freeSlots))})
	}
	*it = c.trees[len(c.trees)-1]
	c.trees = c.trees[:len(c.trees)-1]
	c.open++
	it.top.open()
}

// newTop builds the iterator tree over the whole forest.
func (c *enumCtx) newTop() resultIter {
	var comps []resultIter
	for _, comp := range c.e.forest.Components {
		var trees []resultIter
		for _, t := range comp.Trees {
			trees = append(trees, c.newNodeIter(&c.e.info[t.ID]))
		}
		if len(trees) == 1 {
			comps = append(comps, trees[0])
		} else {
			comps = append(comps, newUnion(trees))
		}
	}
	if len(comps) == 1 {
		return comps[0]
	}
	return newProd(comps)
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

// Lookup returns the multiplicity of t, a tuple over the query's free
// variables, in the iterator's result, 0 if t is not in it. It binds the free
// variables to t, and the next Next re-asserts the iterator's own, as a Union
// operand's does after its siblings ran, so lookups may interleave with a
// pass.
func (it *Iterator) Lookup(t tuple.Tuple) int64 {
	for i, s := range it.c.e.freeSlots {
		it.c.bind[s], it.c.bound[s] = t[i], true
	}
	return it.top.lookup()
}

// Close releases the iterator's bindings and hands its tree back to the
// context for reuse; Next then returns false, and a second Close does nothing.
func (it *Iterator) Close() {
	if it.top == nil {
		return
	}
	if !it.done {
		it.top.close()
	}
	forget(it.top)
	it.c.trees = append(it.c.trees, Iterator{c: it.c, top: it.top, out: it.out})
	it.c.open--
	*it = Iterator{done: true}
}

// forget drops a closed tree's references into the relations it last read —
// relation and index handles, and tuples that alias a store's key column — in
// every node, opened this time or not, so a kept tree pins no retired store.
// The next open sets them again.
func forget(r resultIter) {
	switch it := r.(type) {
	case *nodeIter:
		it.rel, it.ix, it.curT = nil, nil, nil
		if it.prod != nil {
			forget(it.prod)
		}
		for _, g := range it.insts {
			g.h = nil
			forget(g.prod)
		}
	case *prodIter:
		for _, s := range it.subs {
			forget(s)
		}
	case *unionIter:
		for _, s := range it.subs {
			forget(s)
		}
	}
}

// drain calls yield for every remaining tuple with its multiplicity,
// stopping early if yield returns false, and closes the iterator.
func (it *Iterator) drain(yield func(t tuple.Tuple, m int64) bool) {
	defer it.Close()
	for {
		t, m, ok := it.Next()
		if !ok || !yield(t, m) {
			return
		}
	}
}

// Enumerate calls yield for every distinct result tuple with its
// multiplicity, stopping early if yield returns false. It reads the live
// relations and must not run concurrently with updates; use Snapshot for
// that.
func (e *Engine) Enumerate(yield func(t tuple.Tuple, m int64) bool) {
	e.Result().drain(yield)
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
