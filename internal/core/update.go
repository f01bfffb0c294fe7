package core

import (
	"fmt"
	"slices"

	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// The maintenance steps of Section 6: delta propagation along leaf-to-root
// paths (Apply, Figure 17), indicator maintenance (UpdateIndTree, Figure 18),
// the light step that UpdateTrees (Figure 19) and minor rebalancing share,
// and minor and major rebalancing (Figures 20–21). UpdateTrees itself —
// applyBatchOcc, the one kernel every commit's delta goes through — and the
// trigger that sequences it, OnUpdate (Figure 22), live in batch.go. The
// static structure of each step — which leaves an update reaches and the
// plan of every propagation step — is precomputed at Build time (routes.go);
// the code here only executes those routes, and the single-tuple steady
// state runs without heap allocation: deltas are pooled, their rows live in
// reused backing buffers, and every relation probe hashes the unencoded
// tuple directly against the relation's open-addressing table.

// delta is a small relation of weighted tuples. Rows aggregate by tuple:
// add coalesces equal tuples, by linear scan while the delta is small and
// through a lazily built key set once it grows, whose ids are the rows'
// positions. The set is pooled: it survives reset and is cleared when next
// built, so repeated >16-row propagation steps through one delta pool stop
// reallocating it.
type delta struct {
	rows    []weighted
	buf     tuple.Tuple   // backing storage for row tuples, until indexed
	idx     relation.Keys // the rows' tuples, id = row position, once rows are many
	indexed bool          // idx currently holds the rows
}

type weighted struct {
	t tuple.Tuple
	m int64
}

// deltaLinearMax is the row count up to which add dedups by linear scan.
const deltaLinearMax = 16

func (d *delta) reset() {
	d.rows = d.rows[:0]
	d.buf = d.buf[:0]
	d.indexed = false
}

// appendRow appends {t → m} without checking for an existing equal tuple.
// The tuple is copied into the delta's backing buffer. An indexed delta
// appends only through add, whose new rows read their tuples from the index.
func (d *delta) appendRow(t tuple.Tuple, m int64) {
	start := len(d.buf)
	d.buf = append(d.buf, t...)
	d.rows = append(d.rows, weighted{t: d.buf[start:len(d.buf):len(d.buf)], m: m})
}

// add accumulates {t → m} into the delta, aggregating rows by tuple.
func (d *delta) add(t tuple.Tuple, m int64) {
	if !d.indexed {
		if len(d.rows) <= deltaLinearMax {
			for i := range d.rows {
				if d.rows[i].t.Equal(t) {
					d.rows[i].m += m
					return
				}
			}
			d.appendRow(t, m)
			return
		}
		d.idx.Reset(len(t))
		for i := range d.rows {
			d.idx.Add(d.rows[i].t)
		}
		d.indexed = true
	}
	i, added := d.idx.Add(t)
	if !added {
		d.rows[i].m += m
		return
	}
	d.rows = append(d.rows, weighted{t: d.idx.Key(i), m: m})
}

// getDelta and putDelta pool deltas (and their row/tuple buffers) across
// propagations.
func (e *Engine) getDelta() *delta {
	if n := len(e.deltaPool); n > 0 {
		d := e.deltaPool[n-1]
		e.deltaPool = e.deltaPool[:n-1]
		return d
	}
	return &delta{}
}

func (e *Engine) putDelta(d *delta) {
	d.reset()
	e.deltaPool = append(e.deltaPool, d)
}

// setM sets the rebalancing threshold base, clamped to ≥ 1 so the size
// invariant ⌊M/4⌋ ≤ N < M stays meaningful on an empty database.
func (e *Engine) setM(m int) {
	if m < 1 {
		m = 1
	}
	e.m = m
}

// refreshH re-derives the heavy indicator bit ∃H(key) = ∃All(key) ∧ ∄L(key)
// and returns the support change {−1, 0, +1} (UpdateIndTree, Figure 18,
// specialized to H = All ⋈ ∄L).
func (e *Engine) refreshH(s *indShared, key tuple.Tuple) int64 {
	want := s.all.Mult(key) != 0 && s.l.Mult(key) == 0
	have := s.h.Mult(key) != 0
	switch {
	case want && !have:
		s.h.MustAdd(key, 1)
		return 1
	case !want && have:
		s.h.MustAdd(key, -1)
		return -1
	}
	return 0
}

// propagateIndicator pushes a δ(∃H) = {key → dh} change through every main
// tree containing a reference to the indicator (Figure 19 lines 9 and 14).
func (e *Engine) propagateIndicator(s *indShared, key tuple.Tuple, dh int64) {
	d := &s.d1
	d.reset()
	d.appendRow(key, dh)
	for _, lp := range s.refLeaves {
		e.propagatePath(lp, d)
	}
}

// propagatePath propagates a delta from one leaf to the root of its tree,
// maintaining each view on the path (Apply, Figure 17). The leaf's own
// relation must already be updated. The input delta is read-only; deltas
// computed along the path come from (and return to) the engine's pool.
//
// A skip edge runs its plan — the parent above needs δV — but leaves the view
// to its writer's edge, or, into an index-backed view, to the leaf's write,
// which moved the bucket sum the view is read off; a flips edge hands its
// parent the change of the view's support, not δV: +1 for a row the view did
// not have, −1 for one it has no more, nothing otherwise — on a skip edge read
// off the view its writer's edge, propagated earlier, has already brought up
// to date, or off the sum (pathEdge). Any other edge whose input has more than
// sealDeltaRows rows seals δV into the view in one pass (sealEdge).
func (e *Engine) propagatePath(lp *leafPath, d *delta) {
	// Commit-delta capture (watch.go): while a sink is subscribed, the rows
	// the final edge applies to a main tree's root view are that view's
	// commit delta. A tree whose root is itself a leaf has no edges, and the
	// input delta is the root delta.
	var capd *delta
	if cs := e.capture; cs != nil && lp.tree < len(cs.slots) {
		capd = &cs.slots[lp.tree]
	}
	if len(lp.edges) == 0 {
		if capd != nil {
			for j := range d.rows {
				if d.rows[j].m != 0 {
					capd.add(d.rows[j].t, d.rows[j].m)
				}
			}
		}
		return
	}
	last := len(lp.edges) - 1
	cur := d
	for i := range lp.edges {
		edge := &lp.edges[i]
		out := e.getDelta()
		c := capd
		if i != last {
			c = nil
		}
		wrote := e.stats.ViewDeltas
		var more bool // the edge above has rows to read
		if len(cur.rows) > sealDeltaRows && !edge.skip && !edge.flips && (rowByRow == nil || !rowByRow(e)) {
			more = e.sealEdge(edge, cur, out, c, i == last)
		} else {
			edge.plan.run(e.ubind, cur, &planSink{delta: out})
			more = e.applyEdge(edge, out, c)
		}
		if cur != d {
			e.putDelta(cur)
		}
		cur = out
		if traceEdge != nil {
			traceEdge(edge, e.stats.ViewDeltas-wrote)
		}
		if !more {
			break
		}
	}
	if cur != d {
		e.putDelta(cur)
	}
}

// sealDeltaRows is the input size past which an edge that writes its view
// seals δV into it (sealEdge) rather than adding it row by row. A seal has a
// cost per edge that a few rows do not spread — 257 partition offsets to
// clear and sum, and a pass over its records — so single-tuple updates, the
// indicator's one-row deltas and small commits stay row by row.
const sealDeltaRows = 64

// applyEdge applies δV, aggregated in out, to the edge's view row by row (a
// flips edge rewrites out to its support changes) and captures it into capd
// when that is non-nil. It reports whether out has a row for the edge above.
func (e *Engine) applyEdge(edge *pathEdge, out, capd *delta) bool {
	more := false
	for j := range out.rows {
		w := &out.rows[j]
		if w.m == 0 {
			continue
		}
		m := w.m
		if edge.flips {
			var after int64
			switch {
			case edge.backed != nil:
				after = edge.backed.Sum(w.t)
			case edge.skip:
				after = edge.view.Mult(w.t)
			default:
				after = edge.view.MustAddPrior(w.t, m) + m
			}
			switch {
			case after == m:
				w.m = 1
			case after == 0:
				w.m = -1
			default:
				w.m = 0
			}
		} else if !edge.skip {
			edge.view.MustAdd(w.t, m)
		}
		if !edge.skip {
			if capd != nil {
				capd.add(w.t, m)
			}
			e.stats.ViewDeltas++
		}
		more = more || w.m != 0
	}
	return more
}

// sealEdge runs the edge's plan over in straight into its view's delta fill,
// whose seal aggregates δV, applies it and hands its non-zero net rows, in
// the order out.add would have left them, to out — or, on the path's top
// edge, which no edge reads, to the capture slot capd if there is one. It
// reports whether there were any.
func (e *Engine) sealEdge(edge *pathEdge, in, out, capd *delta, top bool) bool {
	v := edge.view
	v.OpenDelta()
	edge.plan.run(e.ubind, in, &planSink{view: v, bulk: true})
	var emit func(t tuple.Tuple, m int64)
	switch {
	case !top:
		emit = out.appendRow
	case capd != nil:
		emit = capd.add
	}
	rows := v.SealDelta(emit)
	e.stats.ViewDeltas += int64(rows)
	return rows > 0
}

// traceEdge is nil outside tests: export_test.go sets it to be told, edge by
// edge, how many rows propagatePath wrote.
var traceEdge func(edge *pathEdge, rows int64)

// rowByRow is nil outside tests: export_test.go sets it to keep an engine's
// every edge on the row-by-row path, whatever the size of its delta.
var rowByRow func(e *Engine) bool

// updPlan is a compiled left-deep index-nested-loops join: a seed's rows are
// bound to scratch slots and the view's other children probed in turn. The
// seed is a child's delta (one plan per (view, child) pair, in Engine.plans
// under the child's node ID) or a whole child (viewFill). Relation and index
// pointers stay valid: materializeAll refills relations in place.
type updPlan struct {
	deltaSlots []int // scratch slot per seed-schema position
	steps      []updStep
	outSlots   []int // scratch slot per view-schema position
	outScratch tuple.Tuple
}

// updStep probes one sibling of the seed.
type updStep struct {
	joinInput                  // the sibling; matched at multiplicity 1 when it is read for its support
	index      *relation.Index // index on the bound variables; nil for full-schema or full-scan probes
	keySlots   []int           // scratch slots providing the probe key
	keyScratch tuple.Tuple
	freshPos   []int // sibling-schema positions newly bound here
	freshSlot  []int
	full       bool // all sibling vars already bound: plain multiplicity probe
}

// planSink is where the executor sends its rows: an update's δV, the relation
// a fill fills — row by row, or appended for the caller to seal, as a sealed
// edge appends its δV to the view, or written at the ids at, at+1, … that
// relation.Relation.Extend opened, as a fill's helper writes its range — or,
// counting, nowhere, the last step's matches being summed, not visited. It
// lives on the caller's stack: a branch per row, not a call.
type planSink struct {
	delta *delta
	view  *relation.Relation
	bulk  bool
	put   bool
	at    relation.ID
	count bool
	rows  int
}

func (e *Engine) updatePlan(n *viewtree.Node, child *viewtree.Node) *updPlan {
	if p := e.plans[child.ID]; p != nil {
		return p
	}
	var sibs []joinInput
	for _, c := range n.Children {
		if c != child {
			sibs = append(sibs, e.input(c))
		}
	}
	e.plans[child.ID] = e.compilePlan(e.rowSchema(child), sibs, e.rowSchema(n))
	return e.plans[child.ID]
}

// rowSchema is the order of the variables in the rows of n's deltas: its
// schema's, or, for an index-backed view, whose delta rows its edge probes
// the sums with, its index's key's.
func (e *Engine) rowSchema(n *viewtree.Node) tuple.Schema {
	if key := e.info[n.ID].sumKey; key != nil {
		return key
	}
	return n.Schema
}

// compilePlan compiles the join of a seed over schema seed with rest, onto
// out, ordering rest greedily: most already-bound variables first. An
// index-backed input is probed with its whole key, which markIndexBacked
// made sure every plan has bound by then.
func (e *Engine) compilePlan(seed tuple.Schema, rest []joinInput, out tuple.Schema) *updPlan {
	p := &updPlan{}
	bound := map[tuple.Variable]bool{}
	for _, v := range seed {
		p.deltaSlots = append(p.deltaSlots, e.slot[v])
		bound[v] = true
	}
	for len(rest) > 0 {
		best, bestScore := 0, -1<<30
		for i, r := range rest {
			score := 0
			for _, v := range r.schema() {
				if bound[v] {
					score++
				}
			}
			score = score*100 - len(r.schema())
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		st := updStep{joinInput: rest[best]}
		rest = slices.Delete(rest, best, best+1)
		var ixSchema tuple.Schema
		for pos, v := range st.schema() {
			if bound[v] {
				ixSchema = append(ixSchema, v)
				st.keySlots = append(st.keySlots, e.slot[v])
			} else {
				st.freshPos = append(st.freshPos, pos)
				st.freshSlot = append(st.freshSlot, e.slot[v])
				bound[v] = true
			}
		}
		st.full = len(st.freshPos) == 0
		if st.backed != nil && !st.full {
			panic(fmt.Sprintf("core: index-backed view on %v probed without its whole key", st.schema()))
		}
		if !st.full && len(ixSchema) > 0 {
			st.index = st.rel.EnsureIndex(ixSchema)
		}
		st.keyScratch = make(tuple.Tuple, len(st.keySlots))
		p.steps = append(p.steps, st)
	}
	for _, v := range out {
		p.outSlots = append(p.outSlots, e.slot[v])
	}
	p.outScratch = make(tuple.Tuple, len(p.outSlots))
	return p
}

// run evaluates δV = δchild ⋈ siblings over the plan, sending the (possibly
// signed) output rows to to; the bindings live in scratch.
func (p *updPlan) run(scratch []tuple.Value, d *delta, to *planSink) {
	for i := range d.rows {
		w := &d.rows[i]
		if w.m == 0 {
			continue
		}
		for k, s := range p.deltaSlots {
			scratch[s] = w.t[k]
		}
		p.rec(scratch, 0, w.m, to)
	}
}

// fill runs n entries of seed, from id on in insertion order — every one
// from id on when n < 0 — through the plan as if they were the delta, and
// returns the entry after the last it ran. An index-backed seed runs whole,
// one row per key of its index, in the order the keys first appear
// (relation.Index.Sums), whatever id and n say.
func (p *updPlan) fill(scratch []tuple.Value, seed joinInput, id relation.ID, n int, to *planSink) relation.ID {
	if seed.backed != nil {
		seed.backed.Sums(nil, false, func(k tuple.Tuple, m int64) {
			for i, s := range p.deltaSlots {
				scratch[s] = k[i]
			}
			p.rec(scratch, 0, seed.mult(m), to)
		})
		return relation.End
	}
	r := seed.rel
	for ; id != relation.End && n != 0; id, n = r.Next(id), n-1 {
		t, m := r.At(id)
		for k, s := range p.deltaSlots {
			scratch[s] = t[k]
		}
		p.rec(scratch, 0, seed.mult(m), to)
	}
	return id
}

// mult is what a stored multiplicity m ≠ 0 counts for in a join over the input.
func (in *joinInput) mult(m int64) int64 {
	if in.exists {
		return 1
	}
	return m
}

// rec is the step executor: it probes step i under the bindings so far and
// recurses per match; past the last step the bound row goes to the sink.
func (p *updPlan) rec(scratch []tuple.Value, i int, mult int64, to *planSink) {
	if i == len(p.steps) {
		for k, s := range p.outSlots {
			p.outScratch[k] = scratch[s]
		}
		switch {
		case to.bulk:
			to.view.Append(p.outScratch, mult)
		case to.put:
			to.view.Put(to.at, p.outScratch, mult)
			to.at++
		case to.view != nil:
			to.view.MustAdd(p.outScratch, mult)
		default:
			to.delta.add(p.outScratch, mult)
		}
		return
	}
	st := &p.steps[i]
	key := st.keyScratch
	for k, s := range st.keySlots {
		key[k] = scratch[s]
	}
	switch {
	case to.count && i == len(p.steps)-1:
		if st.index != nil {
			to.rows += st.index.Count(key)
		} else if !st.full {
			to.rows += st.rel.Size()
		} else if st.multOf(key) != 0 {
			to.rows++
		}
	case st.full:
		if m := st.multOf(key); m != 0 {
			p.rec(scratch, i+1, mult*st.mult(m), to)
		}
	case st.index == nil:
		for id := st.rel.First(); id != relation.End; id = st.rel.Next(id) {
			t, m := st.rel.At(id)
			for k, pos := range st.freshPos {
				scratch[st.freshSlot[k]] = t[pos]
			}
			p.rec(scratch, i+1, mult*st.mult(m), to)
		}
	default:
		for id := st.index.First(key); id != relation.End; id = st.index.Next(id) {
			t, m := st.rel.At(id)
			for k, pos := range st.freshPos {
				scratch[st.freshSlot[k]] = t[pos]
			}
			p.rec(scratch, i+1, mult*st.mult(m), to)
		}
	}
}

// majorRebalance is MajorRebalancing (Figure 20): strictly repartition all
// light parts with the new threshold M^ε and recompute every view. The
// amortized cost is O(N^((w−1)ε)) per update (Proposition 25 and the proof
// of Proposition 27).
func (e *Engine) majorRebalance() {
	// materializeAll refills root views in place, bypassing propagation:
	// while a sink is subscribed, bracket it with a −m/+m pass over the
	// roots so the capture slots net the rebalance's exact diff (watch.go).
	cs := e.capture
	if cs != nil {
		cs.captureRebalanceDiff(e, -1)
	}
	e.materializeAll(1)
	if cs != nil {
		cs.captureRebalanceDiff(e, 1)
	}
	e.stats.MajorRebalances++
}

// Rebalance forces one major rebalance at the current M, for benchmarks
// (BenchmarkMajorRebalance); not for an engine with commit sinks subscribed.
func (e *Engine) Rebalance() { e.majorRebalance() }

// minorRebalance is MinorRebalancing (Figure 21) of a heavy key: move the
// tuples of one partition key into the light part of pr's relation, as one
// delta through the light step. A light key moves out in applyBatchOcc, in
// the light step of the delta that drove it heavy.
func (e *Engine) minorRebalance(pr *partRoute, key tuple.Tuple) {
	d := e.getDelta()
	appendKeyRows(d, pr.p.Relation(), pr.p.Key(), key, 1)
	keys := [1]batchKey{{key: key, light: true}}
	e.lightStep(pr, d, keys[:])
	e.putDelta(d)
	e.stats.MinorRebalances++
}

// appendKeyRows appends to d every row of r whose partition key is key, read
// through r's index on keySchema, with its multiplicity times sign.
func appendKeyRows(d *delta, r *relation.Relation, keySchema tuple.Schema, key tuple.Tuple, sign int64) {
	ix := r.Index(keySchema)
	for id := ix.First(key); id != relation.End; id = ix.Next(id) {
		t, m := r.At(id)
		d.appendRow(t, sign*m)
	}
}

// lightStep is the light-part half of UpdateTrees (Figure 19 lines 10–14) and
// the propagation of MinorRebalancing (Figure 21 lines 4–7): d, whose rows
// all carry one of the light keys of keys, goes into pr's light part, then
// through the main trees' LightAtom leaves and the indicator L trees; after
// every L tree has seen it, ∃H is refreshed once per light key — the
// indicator keys equal the partition key.
func (e *Engine) lightStep(pr *partRoute, d *delta, keys []batchKey) {
	light := pr.p.Light()
	for i := range d.rows {
		light.MustAdd(d.rows[i].t, d.rows[i].m)
	}
	for _, lp := range pr.lightLeaves {
		e.propagatePath(lp, d)
	}
	for _, il := range pr.inds {
		for _, lp := range il.lLeaves {
			e.propagatePath(lp, d)
		}
	}
	for _, il := range pr.inds {
		for ki := range keys {
			if !keys[ki].light {
				continue
			}
			if dh := e.refreshH(il.s, keys[ki].key); dh != 0 {
				e.propagateIndicator(il.s, keys[ki].key, dh)
			}
		}
	}
}

// CheckInvariants verifies the engine's structural invariants: the size
// invariant ⌊M/4⌋ ≤ N < M, the loose partition conditions of
// Definition 11, and the heavy indicator derivation. Intended for tests.
func (e *Engine) CheckInvariants() error {
	if e.n >= e.m || e.n < e.m/4 {
		return fmt.Errorf("core: size invariant violated: N=%d M=%d", e.n, e.m)
	}
	theta := e.Theta()
	for rt, pr := range e.partitions {
		if !pr.p.CheckLoose(theta) {
			return fmt.Errorf("core: loose partition conditions violated for %s on %s (θ=%v)", rt.base.Name(), pr.p.Key(), theta)
		}
	}
	for _, ind := range e.forest.Indicators {
		all, l, h := e.indicatorRels(ind)
		bad := false
		all.ForEach(func(t tuple.Tuple, _ int64) {
			want := l.Mult(t) == 0
			if (h.Mult(t) != 0) != want {
				bad = true
			}
		})
		h.ForEach(func(t tuple.Tuple, m int64) {
			if m != 1 || all.Mult(t) == 0 || l.Mult(t) != 0 {
				bad = true
			}
		})
		if bad {
			return fmt.Errorf("core: heavy indicator %s inconsistent", ind.Name)
		}
	}
	return nil
}
