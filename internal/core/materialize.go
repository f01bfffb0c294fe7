package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
// occurrence changed, and a block of several rows is announced to each
// occurrence (relation.Reserve) before its rows are appended, so the columns
// grow once for all of them. The relation is resolved through a one-entry
// cache in front of the name map, since loads come in runs of one relation.
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
		if len(mults) > 1 {
			rt.base.Reserve(len(mults))
		}
		for i, m := range mults {
			rt.base.Append(vals[i*k:(i+1)*k], m)
		}
	}
	return nil
}

// CheckRows validates a block of rows of relation rel, whose schema is s,
// as LoadRows takes it: len(vals) is len(mults) rows of s's arity — rows of
// one other length are an ArityError of the first — and every multiplicity
// is positive.
func CheckRows(rel string, s tuple.Schema, vals []tuple.Value, mults []int64) error {
	k := len(s)
	if len(vals) != k*len(mults) {
		if n := len(mults); n > 0 && len(vals)%n == 0 {
			return &relation.ArityError{Relation: rel, Row: slices.Clone(vals[:len(vals)/n]), Schema: s.Names()}
		}
		return fmt.Errorf("ivmeps: relation %s: %d values are not %d rows of arity %d", rel, len(vals), len(mults), k)
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
// first, the others after. An index-backed view has no fill: the index it is
// read off, built first of all, is the view (markIndexBacked). The base seals
// and a large join's fill run on up to cores goroutines (Seal, fillJoin),
// which return before Preprocess does: the engine's share of GOMAXPROCS.
//
// alongside, unless nil, runs on a goroutine of its own once the base
// relations are sealed, with a live handle on each, while Preprocess goes on
// to index and materialize; Preprocess returns once it has returned. Nothing
// writes a base relation's entries from the seal until the first commit, so
// alongside may read them (ForEach), but it must pin nothing (FreezeInto):
// a pin would make every index built on the relation meanwhile copy it
// first. It runs once: a second call is a misuse by the owner and panics.
func (e *Engine) Preprocess(cores int, alongside func(bases []Base)) {
	if e.preprocessed {
		panic("core: Preprocess of an engine already preprocessed")
	}
	for i := range e.relTab {
		for _, rt := range e.relTab[i].occs {
			rt.base.Seal(cores)
		}
	}
	var done sync.WaitGroup
	if alongside != nil {
		bases := make([]Base, len(e.relTab))
		for i := range e.relTab {
			bases[i] = Base{Name: e.relTab[i].name, Rel: e.relTab[i].occs[0].base}
		}
		done.Add(1)
		go func() {
			defer done.Done()
			alongside(bases)
		}()
	}
	e.recomputeN()
	// The preprocessing stage sets M = 2N + 1, establishing ⌊M/4⌋ ≤ N < M
	// (proof of Proposition 27). N is maintained incrementally from here on.
	e.m = 2*e.n + 1
	e.sumIx = make([]*relation.Index, len(e.info))
	for id := range e.info {
		if key := e.info[id].sumKey; key != nil {
			e.sumIx[id] = e.rels[id].EnsureIndex(key)
		}
	}
	e.ectx.sums = e.sumIx
	e.materializeAll(cores)
	e.buildEnumIndexes()
	if e.opts.Mode == viewtree.Dynamic {
		e.buildRoutes()
	} else {
		clear(e.fills) // a static engine never rebalances: drop the plans and aggregates
	}
	e.buildRootsLocked()
	done.Wait()
	e.preprocessed = true
	e.epoch = 1 // first committed state
}

// Preprocess loads db into e row by row through LoadRows and runs
// e.Preprocess on GOMAXPROCS: the database loader of the callers — bench/
// among them — that hold their initial data as relations. db maps original
// relation names to relations; missing relations start empty. Unlike
// e.Preprocess it returns an error on an engine already preprocessed.
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
	e.Preprocess(runtime.GOMAXPROCS(0), nil)
	return nil
}

// materializeAll (re)computes all derived state from the base relations:
// strict light parts for the current θ, indicator views, heavy indicators,
// and all main view trees, a large join on up to cores goroutines. It is used
// by preprocessing and by major rebalancing (Figure 20), which runs on its
// caller's goroutine alone, finds every plan compiled and every table sized
// and allocates nothing.
func (e *Engine) materializeAll(cores int) {
	theta := e.Theta()
	for _, pr := range e.partitions {
		pr.p.Rebuild(theta)
		e.refillWrites += int64(pr.p.Light().Size())
	}
	clear(e.filled)
	for _, ind := range e.forest.Indicators {
		e.materializeTree(ind.All, cores)
		e.materializeTree(ind.L, cores)
		e.materializeH(ind)
	}
	for _, c := range e.forest.Components {
		for _, t := range c.Trees {
			e.materializeTree(t, cores)
		}
	}
}

// materializeTree computes every view of a tree bottom-up, refilling its
// relation in place — routes and plans cache the pointer (routes.go); its
// leaves (base relations, light parts, heavy indicators) are already
// materialized, and so is an index-backed view, its leaf's index. A view
// class is filled once a round, through whichever of its nodes comes first;
// the equal subtree below a later one is done by then.
func (e *Engine) materializeTree(n *viewtree.Node, cores int) {
	if n.Kind != viewtree.View || e.filled[n.Canon.ID] || e.sumIx[n.ID] != nil {
		return
	}
	e.filled[n.Canon.ID] = true
	for _, c := range n.Children {
		e.materializeTree(c, cores)
	}
	e.joinChildren(n, cores)
}

// joinInput is one input of a compiled join: a node's relation, every row of
// which counts once when the node is a ∃-child of an indicator tree. For an
// index-backed view, backed is the index it is read off: the view's rows are
// the index's keys with their bucket sums, and rel is the index's relation,
// not the view's.
type joinInput struct {
	rel    *relation.Relation
	exists bool
	backed *relation.Index
}

func (e *Engine) input(n *viewtree.Node) joinInput {
	return joinInput{e.rels[n.ID], n.Exists, e.sumIx[n.ID]}
}

// schema is the variables of the input's rows, in their order.
func (in *joinInput) schema() tuple.Schema {
	if in.backed != nil {
		return in.backed.Key()
	}
	return in.rel.Schema()
}

// multOf is the multiplicity of the row t, a whole row of the input, in it.
func (in *joinInput) multOf(t tuple.Tuple) int64 {
	if in.backed != nil {
		return in.backed.Sum(t)
	}
	return in.rel.Mult(t)
}

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
		if len(ins[i].schema()) < len(ins[seed].schema()) {
			seed = i
		}
	}
	s := ins[seed]
	fills = append(fills, viewFill{plan: e.compilePlan(s.schema(), slices.Delete(ins, seed, seed+1), n.Schema), seed: s, dst: e.rels[n.ID]})
	for i := range fills {
		if f := &fills[i]; len(f.plan.steps) == 0 && f.seed.backed == nil {
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
// A join is a bulk fill (fillJoin), on up to cores goroutines. A fill
// without steps, a sum of one child, is a bulk fill too when it reads its
// sums off an index, one row per distinct key (viewFill); without one, it
// adds its rows one by one.
func (e *Engine) joinChildren(n *viewtree.Node, cores int) {
	id := n.Canon.ID
	if e.fills[id] == nil {
		e.fills[id] = e.compileFill(n)
	}
	for i := range e.fills[id] {
		f := &e.fills[id][i]
		f.dst.Clear()
		switch {
		case f.sum != nil:
			f.dst.Reserve(f.sum.DistinctKeys())
			f.sum.Sums(nil, f.seed.exists, func(k tuple.Tuple, m int64) {
				f.dst.Append(f.toDst.AppendTo(f.plan.outScratch[:0], k), m)
			})
			f.dst.Seal(1)
		case len(f.plan.steps) == 0:
			f.plan.fill(e.ubind, f.seed, f.seed.rel.First(), -1, &planSink{view: f.dst})
		default:
			e.fillJoin(f, cores)
		}
		e.refillWrites += int64(f.dst.Size())
	}
}

// minHelperRows is the fewest rows of a join's fill worth a helper
// goroutine: a fill of n rows runs on at most n ÷ minHelperRows of them. On
// a 2-vCPU Xeon a seal of 2^15 distinct rows took 1.06 ms on two goroutines
// against 1.38 ms on one, and one of 2^12 rows 0.20 ms against 0.16 ms.
// Tests lower it.
var minHelperRows = 1 << 15

// traceHelpers is nil outside tests: export_test.go sets it to see how many
// goroutines each join's fill ran on.
var traceHelpers func(p int)

// fillJoin fills f.dst with the join f's plan runs over its seed, as a bulk
// fill: a counting pass runs the plan one step short and sums the last step's
// bucket sizes — the rows the join will append, |V| unless the projection
// merges some — which size dst's columns; the join then appends its rows and
// Seal places them (relation.Relation.Append).
//
// With cores > 1 the counting pass also notes the rows of every seed entry,
// and a fill of n rows runs on p = min(cores, n ÷ minHelperRows) goroutines
// when p > 1. The seed's first entries run on the caller until dst has sealed
// its first chunk of rows: only if it did so without a merge does dst open the
// rest at once (relation.Relation.Extend), as it would grow its columns to
// the count. The rest of the seed is cut into chunks of about equal rows that
// p goroutines take in turn (fillOn), each writing a chunk's rows at their
// ids (planSink.put) through a copy of the plan's scratch, while one more
// goroutine sizes dst's probe array, before one Seal(p) places them all:
// the rows land at the ids, and in the order, of a fill on the caller alone.
// A seed that is an index-backed view runs whole on the caller: its rows are
// the index's keys, which have no ids to cut into chunks.
func (e *Engine) fillJoin(f *viewFill, cores int) {
	if f.seed.backed != nil {
		cores = 1
	}
	seed := f.seed.rel
	count := planSink{count: true}
	var upTo []int // upTo[i]: the rows of the seed's first i entries
	if cores > 1 {
		upTo = make([]int, 1, seed.Size()+1)
		for id := seed.First(); id != relation.End; id = seed.Next(id) {
			f.plan.fill(e.ubind, f.seed, id, 1, &count)
			upTo = append(upTo, count.rows)
		}
	} else {
		f.plan.fill(e.ubind, f.seed, seed.First(), -1, &count)
	}
	n := count.rows
	f.dst.Reserve(n)
	bulk := planSink{view: f.dst, bulk: true}
	id, p := seed.First(), 1
	if h := min(cores, n/minHelperRows); h > 1 && n > relation.FirstChunk {
		j, _ := slices.BinarySearch(upTo, relation.FirstChunk+1)
		id = f.plan.fill(e.ubind, f.seed, id, j, &bulk)
		if first, ok := f.dst.Extend(n - upTo[j]); ok {
			e.fillOn(f, h, id, upTo[j:], first)
			p = h
		}
	}
	if p == 1 {
		f.plan.fill(e.ubind, f.seed, id, -1, &bulk)
	}
	if traceHelpers != nil {
		traceHelpers(p)
	}
	f.dst.Seal(p)
}

// fillChunk is a run of seed entries of a join's fill (fillOn), and the id
// its first row takes.
type fillChunk struct {
	id      relation.ID // the run's first entry
	entries int
	at      relation.ID
}

// fillOn runs f's plan over the seed's entries from id on, on p goroutines,
// writing their rows at first on: upTo[i] − upTo[0] rows come before the
// i-th entry's. The entries are cut into 8p chunks of about equal rows,
// which the goroutines take in turn as they finish, so one that shares its
// core with other work — the goroutine that sizes dst's probe array
// meanwhile (relation.Relation.SizeSlots), the garbage collector — takes
// fewer. The caller fills on the plan's own scratch; the others' copies of
// the plan, with step keys, out row and bindings of their own, are cut from
// one arena, so a fill allocates the same whatever p but for the goroutines
// themselves.
func (e *Engine) fillOn(f *viewFill, p int, id relation.ID, upTo []int, first relation.ID) {
	cs := make([]fillChunk, 8*p)
	rows, i := upTo[len(upTo)-1]-upTo[0], 0
	for k := range cs { // entries holds the index of the chunk's first entry until the next loop
		for upTo[i]-upTo[0] < k*rows/len(cs) {
			id, i = f.seed.rel.Next(id), i+1
		}
		cs[k] = fillChunk{id: id, entries: i, at: first + relation.ID(upTo[i]-upTo[0])}
	}
	for k := range cs {
		end := len(upTo) - 1
		if k+1 < len(cs) {
			end = cs[k+1].entries
		}
		cs[k].entries = end - cs[k].entries
	}
	pl := f.plan
	plans := make([]updPlan, p-1)
	size := len(e.ubind) + len(pl.outScratch)
	for _, st := range pl.steps {
		size += len(st.keyScratch)
	}
	steps, vals := make([]updStep, (p-1)*len(pl.steps)), make([]tuple.Value, (p-1)*size)
	var next atomic.Int64
	run := func(pl *updPlan, bind []tuple.Value) {
		for c := next.Add(1) - 1; c < int64(len(cs)); c = next.Add(1) - 1 {
			to := planSink{view: f.dst, put: true, at: cs[c].at}
			pl.fill(bind, f.seed, cs[c].id, cs[c].entries, &to)
		}
	}
	var wg sync.WaitGroup
	wg.Add(p)
	go func() {
		defer wg.Done()
		f.dst.SizeSlots() // its allocation and first touch overlap the fill, not the seal
	}()
	for k := range plans {
		q := &plans[k]
		*q = *pl
		q.steps, steps = steps[:len(pl.steps):len(pl.steps)], steps[len(pl.steps):]
		v := vals[k*size : (k+1)*size]
		for j, st := range pl.steps {
			n := len(st.keyScratch)
			q.steps[j] = st
			q.steps[j].keyScratch, v = v[:n:n], v[n:]
		}
		n := len(pl.outScratch)
		q.outScratch = v[:n:n]
		go func() {
			defer wg.Done()
			run(q, v[n:])
		}()
	}
	run(pl, e.ubind)
	wg.Wait()
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
	e.refillWrites += int64(h.Size())
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
