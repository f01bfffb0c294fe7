package core

import (
	"fmt"

	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// The commit envelope. Every write to a preprocessed engine — the
// single-tuple Update, the multi-relation CommitBatch, and the two-phase
// PrepareCommit/ApplyPrepared — is one commit through its two halves,
// PrepareCommit and applyStagedLocked, the paper's OnUpdate trigger
// (Figure 22) at commit granularity:
//
//	validate → propagate → major-rebalance check → stats → epoch++ →
//	publish commit delta
//
// The paper runs UpdateTrees and only then checks the size invariant. A
// commit knows before it applies anything whether it will leave N outside
// [⌊M/4⌋, M); on a forest with a partition such a commit ends in a refill of
// every view from the base relations (MajorRebalancing, Figure 20), so it
// writes its base deltas and goes straight to the refill, propagating
// nothing the refill would clear. In the same spirit a light key that a
// commit drives to 3⁄2·θ moves out of the light part at once, rather than
// taking the light step with its rows first (applyBatchOcc).
//
// Validation is all-or-nothing and a commit whose ops are all zero-mult (or
// that has no ops) publishes nothing: no epoch, no stats. The envelope takes
// no lock: the engine's owner serializes commits with every other call (see
// Engine), so a commit is never observed half-applied.
// Per relation, the ops aggregate into one delta per leaf, so each view
// tree is walked once per (commit, relation) instead of once per update,
// and the minor/major rebalance checks run once per distinct partition key
// instead of once per update. Every aggregated delta goes through one
// kernel, applyBatchOcc; a single-tuple Update is a batch of one. The
// result is observably equivalent to applying the updates one by one: the
// enumerated query result, the database size N, and the engine invariants
// (CheckInvariants) all match; internal state that the paper leaves
// implementation-defined — the exact threshold base M after growth and
// which keys sit in the light parts — may differ within the allowed
// invariants, exactly as a different update order would.
//
// The envelope's two halves are exported (PrepareCommit / ApplyPrepared /
// AbortPrepared) so a federation of engines can coordinate an atomic commit
// across shards: validate on every shard first, run its commit hook (the
// durability point, internal/federation), apply everywhere only if every
// shard accepted and the hook did too.

// BatchOp is one single-tuple update of a (possibly multi-relation) batch:
// {Row → Mult} applied to relation Rel. Mult > 0 inserts, Mult < 0 deletes,
// Mult == 0 is skipped. The Row slice is referenced, not copied, until the
// commit returns.
//
// RelID is an output of validation, not an input: every commit resolves
// each op by Rel and writes the engine's relation id (a positive index in
// first-occurrence order over the query's atoms) into the op, so a
// coordinator's commit hook sees resolved ids. Whatever a caller left there is
// overwritten, so one slice of ops may be committed to several engines.
type BatchOp struct {
	Rel   string
	RelID int
	Row   tuple.Tuple
	Mult  int64
}

// CommitBatch applies a sequence of updates spanning any of the query's
// relations as one atomic maintenance commit. The ops are validated first,
// in order — each op's relation resolved by its Rel name (its RelID is
// overwritten with the result), arity against the relation's schema,
// deletes against the stored multiplicities plus the preceding ops of the
// batch — and on any error (an unknown relation, an ArityError, a
// MultiplicityError) the engine is left completely unchanged, unlike a
// sequential Update loop, which would have applied the prefix. On success
// the whole batch publishes one epoch: a Snapshot captures the state before
// or after it, never a half-applied batch.
//
// Per touched relation (in first-touched order), the ops aggregate into
// one net delta per view-tree leaf, propagated with the same phase
// structure as a one-relation batch; see applyBatchOcc. Relations are
// propagated relation-major rather than in one fused phase because a
// delta's sibling probes read the other base relations: relation i's
// propagation must observe relations 1..i-1 post-update and relations
// i+1..k pre-update (the standard delta-join factorization), which a
// single fused phase over fully-updated bases would break (it would
// overcount δR ⋈ δS terms). The observable result
// equals the interleaved sequential Update sequence, with the usual
// implementation-defined latitude in M and the light parts.
func (e *Engine) CommitBatch(ops []BatchOp) error {
	// Validate, then apply, which cannot fail after validation.
	if err := e.PrepareCommit(ops); err != nil {
		return err
	}
	e.applyStagedLocked()
	return nil
}

// Update applies a single-tuple update δR = {t → m} to relation rel as a
// one-op commit: m > 0 inserts, m < 0 deletes, m == 0 validates and does
// nothing. Deletes that exceed the stored multiplicity are rejected. The
// amortized cost is O(N^(δε)) (Proposition 27).
func (e *Engine) Update(rel string, t tuple.Tuple, m int64) error {
	e.op1[0] = BatchOp{Rel: rel, Row: t, Mult: m}
	err := e.CommitBatch(e.op1[:])
	e.op1[0] = BatchOp{} // drop the reference into the caller's row
	return err
}

// ApplyPrepared is the second half of a two-phase commit: it applies the
// batch staged by a successful PrepareCommit and publishes one epoch (none
// if the batch had no nonzero-mult op). It panics if no prepared batch is
// staged.
func (e *Engine) ApplyPrepared() {
	if !e.staged {
		panic("core: ApplyPrepared without a successful PrepareCommit")
	}
	e.applyStagedLocked()
}

// AbortPrepared discards the batch staged by a successful PrepareCommit —
// the engine state, including its epoch, is exactly as before the prepare.
// It panics if no prepared batch is staged.
func (e *Engine) AbortPrepared() {
	if !e.staged {
		panic("core: AbortPrepared without a successful PrepareCommit")
	}
	e.releaseStagedLocked()
}

// PrepareCommit is the first half of a two-phase commit: it validates the
// batch exactly as CommitBatch does. On an error the engine is untouched.
// On success the validated batch stays staged until the owner resolves it
// with exactly one ApplyPrepared or AbortPrepared call, making no other
// call in between; it panics if a batch is already staged. The ops (and
// the rows they reference) must stay unmodified until then.
//
// The split exists for the coordinator (internal/federation), which
// commits every write this way: prepare every shard, and only when all of
// them accepted — and its commit hook logged the commit — apply all of
// them; an error anywhere aborts them untouched, preserving all-or-nothing
// across engines.
//
// Validation runs in op order, tracking the running multiplicity of each
// distinct (relation, tuple) and aggregating the net delta per tuple in
// first-seen order. All grouping state — the relation table's tuple-keyed
// maps and group lists, one set per query relation, indexed by RelID — is
// pooled on the engine (keys reference the caller's rows until the staged
// batch is applied or released), so repeated batches validate without
// allocating. Every op is resolved by name, through a one-entry cache in
// front of the map since ingest streams are usually runs of one relation,
// and the resolved id is written into the op. A one-op commit has nothing
// to aggregate and skips the tuple-keyed map. Reset is bounded
// (relation.Keys), so this skip and the one-row skips in applyBatchOcc and
// refreshBatchH each save a constant per table: a Reset, a hash and a probe.
// A single-tuple update is made of such constants: without the three skips,
// BenchmarkUpdateSteadyState/two-path ran 8% slower (median of 10
// alternating pairs, slower in 8, on a 2-CPU Xeon VM).
//
// On success the aggregated groups stay staged on the engine
// (e.batchTouched / e.relTab) for applyStagedLocked; on an error every
// entry is released.
func (e *Engine) PrepareCommit(ops []BatchOp) error {
	if e.staged {
		panic("core: PrepareCommit with a batch already staged")
	}
	if !e.preprocessed {
		return fmt.Errorf("core: commit: %w (run Preprocess first)", ErrNotBuilt)
	}
	if e.opts.Mode != viewtree.Dynamic {
		return fmt.Errorf("core: %w; rebuild with Mode: Dynamic for updates", ErrStatic)
	}
	single := len(ops) == 1
	applied := 0
	id := 0
	var br *relEntry
	var err error
	for i := range ops {
		op := &ops[i]
		if br == nil || op.Rel != br.name {
			if id = e.relIdx[op.Rel]; id == 0 {
				err = fmt.Errorf("%w: %q (query %s)", ErrUnknownRelation, op.Rel, e.orig)
				break
			}
			br = &e.relTab[id-1]
			if !br.touched {
				br.touched = true
				e.batchTouched = append(e.batchTouched, id)
			}
		}
		op.RelID = id
		if len(op.Row) != br.arity {
			err = &relation.ArityError{Relation: br.name, Row: op.Row.Clone(), Schema: br.occs[0].base.Schema().Names()}
			break
		}
		if op.Mult == 0 {
			// Still validated above — a zero-mult op against an unknown
			// relation or with the wrong arity must not slip through — but
			// it contributes nothing to the deltas.
			continue
		}
		gi, added := 0, true
		if !single {
			gi, added = br.val.Add(op.Row)
		}
		if added {
			br.groups = append(br.groups, batchGroup{t: op.Row, stored: br.occs[0].base.Mult(op.Row)})
		}
		g := &br.groups[gi]
		if g.stored+g.net+op.Mult < 0 {
			err = &relation.MultiplicityError{Relation: br.name, Row: op.Row.Clone(),
				Have: g.stored + g.net, Delta: op.Mult}
			break
		}
		g.net += op.Mult
		applied++
	}
	if err != nil {
		// All-or-nothing: no base relation or view has been touched yet.
		e.releaseStagedLocked()
		return err
	}
	e.stagedApplied = applied
	e.staged = true
	return nil
}

// applyStagedLocked is the envelope's second half: it applies a batch
// staged by PrepareCommit, relation-major, in first-touched order — one
// aggregated delta per relation (zero-net tuples drop out), run through
// every occurrence's routes, or, on a commit that crosses a major-rebalance
// trigger of a forest with a partition, written to every occurrence's base
// relation alone. Each relation's validation state only reads its own
// pre-batch multiplicities, so earlier relations' propagation cannot
// invalidate later groups. The major-rebalance trigger is evaluated once,
// after every relation's pass (rebalanceBatchLocked), and the whole commit
// publishes one epoch. A staged batch without a nonzero-mult op commits
// nothing and publishes no epoch.
func (e *Engine) applyStagedLocked() {
	if e.stagedApplied == 0 {
		e.releaseStagedLocked()
		return
	}
	// Whatever propagation would write, the refill would clear.
	refill := len(e.forest.LightParts) > 0 && e.crossesLocked()
	touched := 0
	for _, id := range e.batchTouched {
		br := &e.relTab[id-1]
		d := e.getDelta()
		for gi := range br.groups {
			if br.groups[gi].net != 0 {
				d.appendRow(br.groups[gi].t, br.groups[gi].net)
			}
		}
		if len(d.rows) > 0 {
			// Footnote 2: an update to a repeated relation symbol is a
			// sequence of updates to each occurrence.
			for _, rt := range br.occs {
				if refill {
					e.writeBase(rt, d)
					// A tree that is the atom itself has no view for the
					// refill to diff: its delta is the commit's.
					for _, lp := range rt.atomLeaves {
						if len(lp.edges) == 0 {
							e.propagatePath(lp, d)
						}
					}
				} else {
					e.applyBatchOcc(rt, d)
				}
			}
			// Relations whose ops net to zero propagate nothing and do not
			// count toward the commit's relation fan-out.
			touched++
		}
		e.putDelta(d)
	}
	e.rebalanceBatchLocked()
	e.stats.Updates += int64(e.stagedApplied)
	e.stats.Batches++
	e.stats.BatchRelations += int64(touched)
	e.releaseStagedLocked()
	e.epoch++ // commit point: publish the new state to future snapshots
	e.publishCommitLocked()
}

// rebalanceBatchLocked is the commit-boundary major-rebalance trigger
// (Figure 22 lines 2–7, hoisted from per-update to per-commit): if the
// whole batch left N outside [⌊M/4⌋, M), adjust M until the size
// invariant holds again (a large batch can cross several doublings at
// once) and recompute everything — from base relations that, on a forest
// with a partition, are the only thing the commit wrote (crossesLocked
// said so before it applied anything). A forest without a partition stops
// at M: no view reads θ, so each already holds what the recomputation
// would, its commit's propagation included (the star, every δ = 0 query).
// Evaluating the trigger once per commit — on N after every relation — is
// deliberate hysteresis: a batch whose early relations barely cross an M
// doubling and whose later relations shrink N back re-materializes zero
// times, where a per-relation trigger re-materialized on the way up and
// again on the way down.
func (e *Engine) rebalanceBatchLocked() {
	if e.n < e.m && e.n >= e.m/4 {
		return
	}
	for e.n >= e.m {
		e.setM(2 * e.m)
	}
	for e.n < e.m/4 {
		old := e.m
		e.setM(e.m/2 - 1)
		if e.m == old {
			break
		}
	}
	if len(e.forest.LightParts) == 0 {
		e.stats.MajorRebalances++
		return
	}
	e.majorRebalance()
}

// crossesLocked reports whether applying the staged batch leaves N outside
// [⌊M/4⌋, M). The groups know it before anything is applied: a tuple adds
// one to N when it is new and stays, and takes one away when it goes.
func (e *Engine) crossesLocked() bool {
	n := e.n
	for _, id := range e.batchTouched {
		for _, g := range e.relTab[id-1].groups {
			switch {
			case g.stored == 0 && g.net > 0:
				n++
			case g.stored > 0 && g.stored+g.net == 0:
				n--
			}
		}
	}
	return n >= e.m || n < e.m/4
}

// batchGroup is the per-distinct-tuple validation state of one batch.
type batchGroup struct {
	t      tuple.Tuple
	net    int64
	stored int64
}

// releaseStagedLocked returns the touched relation-table entries to their
// pooled validation state with every reference into the caller's rows
// dropped (after an apply, an abort, and on every validation error alike),
// so a failed or aborted batch does not stay pinned by the pooled maps and
// group lists.
func (e *Engine) releaseStagedLocked() {
	for _, id := range e.batchTouched {
		br := &e.relTab[id-1]
		clear(br.groups)
		br.groups = br.groups[:0]
		br.val.Reset(br.arity)
		br.touched = false
	}
	e.batchTouched = e.batchTouched[:0]
	e.staged = false
	e.stagedApplied = 0
}

// batchKey is the per-distinct-partition-key state of one applyBatchOcc
// pass. The key tuple is the partition route's grouping-table key — for a
// one-row delta, its key scratch — and is valid for the duration of the
// pass.
type batchKey struct {
	key   tuple.Tuple
	light bool // the key was new or light before the pass: its rows take the light step
	out   bool // a light key the pass drove to 3⁄2·θ: it leaves the light part instead
	rows  []int
}

// appendBatchKey appends a batchKey to keys, reusing the rows buffer of a
// previously pooled slot when the slice grows within capacity.
func appendBatchKey(keys []batchKey, key tuple.Tuple, light bool) []batchKey {
	if len(keys) < cap(keys) {
		keys = keys[:len(keys)+1]
		bk := &keys[len(keys)-1]
		bk.key, bk.light, bk.out = key, light, false
		bk.rows = bk.rows[:0]
		return keys
	}
	return append(keys, batchKey{key: key, light: light})
}

// applyBatchOcc is the maintenance kernel: UpdateTrees (Figure 19) for the
// aggregated delta d of one occurrence relation, with the per-update work
// hoisted to per-delta or per-distinct-key, and the minor-rebalancing
// checks once per distinct key (Figure 22 lines 9–15) — a light key's
// folded into its light step.
// Every commit's delta takes it, a single-tuple Update's as a batch of one,
// which size guards keep cheap: a one-row delta skips the grouping tables
// (PrepareCommit says what that saves), a partition whose keys all route
// light, none of them out, takes d itself as its light delta, and an occurrence without
// partitions returns before computing θ. The major-rebalance trigger is NOT
// evaluated here — it is deferred to the commit boundary
// (rebalanceBatchLocked), so a multi-relation commit whose interim sizes
// oscillate across a threshold re-materializes at most once.
func (e *Engine) applyBatchOcc(rt *relRoutes, d *delta) {
	// Capture the pre-update partition state per distinct key (Figure 19
	// line 10 needs the pre-update degrees to route to the light parts).
	// Each partition's grouping table, which numbers and holds its distinct
	// keys, and its batchKey list are reset, not reallocated, so this pass
	// allocates only when a delta grows past every previous one. A one-row
	// delta has one key per partition, left in the route's key scratch: it
	// needs no table.
	single := len(d.rows) == 1
	for _, pr := range rt.parts {
		keys := pr.keys[:0]
		if !single {
			pr.group.Reset(len(pr.p.Key()))
		}
		for ri := range d.rows {
			pr.keyScratch = pr.p.AppendPartKey(pr.keyScratch[:0], d.rows[ri].t)
			key := pr.keyScratch
			ki, added := 0, true
			if !single {
				ki, added = pr.group.Add(key)
				key = pr.group.Key(ki)
			}
			if added {
				keys = appendBatchKey(keys, key, pr.p.IsLight(key) || pr.p.Degree(key) == 0)
			}
			keys[ki].rows = append(keys[ki].rows, ri)
		}
		pr.keys = keys
	}

	// Apply the delta to the base relation, then propagate it through every
	// main tree and every affected All tree. The light parts and ∃H
	// relations are untouched until every tree has seen the delta.
	e.writeBase(rt, d)
	for _, lp := range rt.atomLeaves {
		e.propagatePath(lp, d)
	}
	for _, ir := range rt.inds {
		for _, lp := range ir.allLeaves {
			e.propagatePath(lp, d)
		}
	}
	// δ(∃H) once per distinct indicator key of the delta, indicator by
	// indicator: propagation in one main tree may read the ∃H relation of
	// a later indicator, so the refresh/propagate interleaving follows the
	// one-by-one order.
	for _, ir := range rt.inds {
		e.refreshBatchH(ir, d)
	}
	if len(rt.parts) == 0 {
		return
	}

	// Route to the light parts, one delta per partition (lines 10–14), then
	// run the minor-rebalancing checks once per distinct key (Figure 22
	// lines 9–15). A key routed light — new, or light before the delta —
	// takes the light step with its rows while its degree after the base
	// write, which is its light degree after the step, stays below 3⁄2·θ.
	// One that reached 3⁄2·θ would take the step and then move out with
	// every row, so it moves out at once, with the rows the light part held
	// before the delta: its own rows never enter the light part. A key
	// routed heavy whose degree fell below ½·θ moves in after the step.
	theta := e.Theta()
	for _, pr := range rt.parts {
		keys := pr.keys
		light, out := 0, 0
		for ki := range keys {
			bk := &keys[ki]
			if bk.light {
				light++
				if bk.out = float64(pr.p.Degree(bk.key)) >= 1.5*theta; bk.out {
					out++
				}
			}
		}
		switch {
		case light == len(keys) && out == 0:
			e.lightStep(pr, d, keys)
		case light > 0:
			ld := e.getDelta()
			for ki := range keys {
				switch bk := &keys[ki]; {
				case bk.out:
					appendKeyRows(ld, pr.p.Light(), pr.p.Key(), bk.key, -1)
				case bk.light:
					for _, ri := range bk.rows {
						ld.appendRow(d.rows[ri].t, d.rows[ri].m)
					}
				}
			}
			e.lightStep(pr, ld, keys)
			e.putDelta(ld)
		}
		e.stats.MinorRebalances += int64(out)
		for ki := range keys {
			if keys[ki].light {
				continue
			}
			if deg := float64(pr.p.Degree(keys[ki].key)); deg > 0 && deg < 0.5*theta {
				e.minorRebalance(pr, keys[ki].key)
			}
		}
	}
}

// writeBase applies d to the occurrence's base relation, maintaining N and
// the count of base writes.
func (e *Engine) writeBase(rt *relRoutes, d *delta) {
	before := rt.base.Size()
	for i := range d.rows {
		rt.base.MustAdd(d.rows[i].t, d.rows[i].m)
	}
	e.baseWrites += int64(len(d.rows))
	if rt.countsN {
		e.n += rt.base.Size() - before
	}
}

// refreshBatchH refreshes ∃H once per distinct indicator key appearing in
// the delta and propagates the resulting δ(∃H) changes. The distinct-key set
// is pooled, and a one-row delta skips it (see PrepareCommit).
func (e *Engine) refreshBatchH(ir *indRoute, d *delta) {
	single := len(d.rows) == 1
	if !single {
		e.seenKeys.Reset(len(ir.s.ind.Keys))
	}
	for i := range d.rows {
		ir.keyScratch = ir.keyProj.AppendTo(ir.keyScratch[:0], d.rows[i].t)
		if !single {
			if _, added := e.seenKeys.Add(ir.keyScratch); !added {
				continue
			}
		}
		if dh := e.refreshH(ir.s, ir.keyScratch); dh != 0 {
			e.propagateIndicator(ir.s, ir.keyScratch, dh)
		}
	}
}
