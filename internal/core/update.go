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
// through a lazily built tuple-keyed index once it grows. The index is a
// pooled open-addressing map that survives reset (cleared, not dropped), so
// repeated >16-row propagation steps through one delta pool stop
// reallocating it.
type delta struct {
	rows    []weighted
	buf     tuple.Tuple  // backing storage for row tuples
	idx     tuple.IntMap // row index by tuple, once rows are many
	indexed bool         // idx currently holds the rows
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
	if d.indexed {
		d.idx.Reset()
		d.indexed = false
	}
}

// appendRow appends {t → m} without checking for an existing equal tuple.
// The tuple is copied into the delta's backing buffer.
func (d *delta) appendRow(t tuple.Tuple, m int64) int {
	start := len(d.buf)
	d.buf = append(d.buf, t...)
	d.rows = append(d.rows, weighted{t: d.buf[start:len(d.buf):len(d.buf)], m: m})
	return len(d.rows) - 1
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
		for i := range d.rows {
			d.idx.Put(d.rows[i].t, i)
		}
		d.indexed = true
	}
	i, h, ok := d.idx.GetHash(t)
	if ok {
		d.rows[i].m += m
		return
	}
	i = d.appendRow(t, m)
	d.idx.PutHashed(h, d.rows[i].t, i)
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

// rebalanceKey is the minor-rebalancing check for one partition key after
// its rows took their route (Figure 22, lines 9–15): a light key that
// reached 3θ/2 moves out of the light part, a heavy key whose degree fell
// below θ/2 moves in. A key's tuples are all in the light part or none are,
// so its route says which of the two degrees to probe.
func (e *Engine) rebalanceKey(pr *partRoute, key tuple.Tuple, light bool, theta float64) {
	if light {
		if float64(pr.p.LightDegree(key)) >= 1.5*theta {
			e.minorRebalance(pr, key, false)
		}
	} else if deg := float64(pr.p.Degree(key)); deg > 0 && deg < 0.5*theta {
		e.minorRebalance(pr, key, true)
	}
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
// to its writer's edge; a flips edge hands its parent the change of the view's
// support, not δV: +1 for a row the view did not have, −1 for one it has no
// more, nothing otherwise — on a skip edge read off the view its writer's
// edge, propagated earlier, has already brought up to date (pathEdge).
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
		edge.plan.run(e.ubind, cur, out)
		if cur != d {
			e.putDelta(cur)
		}
		cur = out
		// Apply δV to the materialized parent view; more says the edge above
		// has rows to read.
		more, wrote := false, e.stats.DeltasApplied
		for j := range cur.rows {
			w := &cur.rows[j]
			if w.m == 0 {
				continue
			}
			m := w.m
			if edge.flips {
				after := edge.view.Mult(w.t)
				if !edge.skip {
					after += m
				}
				switch {
				case after == m:
					w.m = 1
				case after == 0:
					w.m = -1
				default:
					w.m = 0
				}
			}
			if !edge.skip {
				edge.view.MustAdd(w.t, m)
				if capd != nil && i == last {
					capd.add(w.t, m)
				}
				e.stats.DeltasApplied++
			}
			more = more || w.m != 0
		}
		if traceEdge != nil {
			traceEdge(edge, e.stats.DeltasApplied-wrote)
		}
		if !more {
			break
		}
	}
	if cur != d {
		e.putDelta(cur)
	}
}

// traceEdge is nil outside tests: export_test.go sets it to be told, edge by
// edge, how many rows propagatePath wrote.
var traceEdge func(edge *pathEdge, rows int64)

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
// a fill fills — row by row, or appended for the caller to seal — or, counting,
// nowhere, the last step's matches being summed, not visited. It lives on the
// caller's stack: a branch per row, not a call.
type planSink struct {
	delta *delta
	view  *relation.Relation
	bulk  bool
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
	e.plans[child.ID] = e.compilePlan(child.Schema, sibs, n.Schema)
	return e.plans[child.ID]
}

// compilePlan compiles the join of a seed over schema seed with rest, onto
// out, ordering rest greedily: most already-bound variables first.
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
			for _, v := range r.rel.Schema() {
				if bound[v] {
					score++
				}
			}
			score = score*100 - len(r.rel.Schema())
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		st := updStep{joinInput: rest[best]}
		rest = slices.Delete(rest, best, best+1)
		var ixSchema tuple.Schema
		for pos, v := range st.rel.Schema() {
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

// run evaluates δV = δchild ⋈ siblings over the plan, accumulating the
// (possibly signed) output rows into out; the bindings live in scratch.
func (p *updPlan) run(scratch []tuple.Value, d *delta, out *delta) {
	to := planSink{delta: out}
	for i := range d.rows {
		w := &d.rows[i]
		if w.m == 0 {
			continue
		}
		for k, s := range p.deltaSlots {
			scratch[s] = w.t[k]
		}
		p.rec(scratch, 0, w.m, &to)
	}
}

// fill runs the whole of seed through the plan as if it were the delta.
func (p *updPlan) fill(scratch []tuple.Value, seed joinInput, to *planSink) {
	r := seed.rel
	for id := r.First(); id != relation.End; id = r.Next(id) {
		t, m := r.At(id)
		for k, s := range p.deltaSlots {
			scratch[s] = t[k]
		}
		p.rec(scratch, 0, seed.mult(m), to)
	}
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
		} else if st.rel.Mult(key) != 0 {
			to.rows++
		}
	case st.full:
		if m := st.rel.Mult(key); m != 0 {
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
	e.materializeAll()
	if cs != nil {
		cs.captureRebalanceDiff(e, 1)
	}
	e.stats.MajorRebalances++
}

// Rebalance forces one major rebalance at the current M, for benchmarks
// (BenchmarkMajorRebalance); not for an engine with commit sinks subscribed.
func (e *Engine) Rebalance() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.invalidateGenLocked()
	e.majorRebalance()
}

// minorRebalance is MinorRebalancing (Figure 21): move the tuples of one
// partition key into (insert=true) or out of (insert=false) the light part
// of pr's relation, as one delta through the light step.
func (e *Engine) minorRebalance(pr *partRoute, key tuple.Tuple, insert bool) {
	p := pr.p
	base := p.Relation()
	ix := base.Index(p.Key())
	d := e.getDelta()
	ix.ForEachMatch(key, func(t tuple.Tuple, m int64) {
		if insert {
			d.appendRow(t, m)
		} else {
			d.appendRow(t, -m)
		}
	})
	keys := [1]batchKey{{key: key, light: true}}
	e.lightStep(pr, d, keys[:])
	e.putDelta(d)
	e.stats.MinorRebalances++
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
