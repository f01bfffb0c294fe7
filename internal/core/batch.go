package core

import (
	"fmt"

	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// The commit envelope. Every write to a preprocessed engine — the
// single-tuple Update, the multi-relation CommitBatch, and the two-phase
// PrepareCommit/ApplyPrepared — is one commit through commitLocked or its
// two halves (prepareLocked, applyStagedLocked), the paper's OnUpdate
// trigger (Figure 22) at commit granularity:
//
//	validate → [hook] → invalidate snapshot generation → propagate →
//	major-rebalance check → stats → epoch++ → publish commit delta
//
// Validation is all-or-nothing and a commit whose ops are all zero-mult (or
// that has no ops) publishes nothing: no hook call, no epoch, no stats.
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
// across shards: validate on every shard first, apply everywhere only if
// every shard accepted.

// BatchOp is one single-tuple update of a (possibly multi-relation) batch:
// {Row → Mult} applied to relation Rel. Mult > 0 inserts, Mult < 0 deletes,
// Mult == 0 is skipped. The Row slice is referenced, not copied, until the
// commit returns.
//
// RelID optionally carries the relation pre-resolved via Engine.RelID so
// commit validation skips the per-op name lookup; 0 (the zero value) means
// "resolve Rel by name", and validation stamps the resolved id back into
// the op. A nonzero RelID takes precedence over Rel — it must come from
// RelID on the same engine; Rel is still used for error messages.
type BatchOp struct {
	Rel   string
	RelID int
	Row   tuple.Tuple
	Mult  int64
}

// RelID returns the engine's stable identifier for an original relation
// name: a positive index assigned at construction time (first-occurrence
// order over the query's atoms), or 0 if the relation does not occur in
// the query. Stamping it into BatchOp.RelID lets batch builders resolve
// each relation once instead of once per commit validation pass.
func (e *Engine) RelID(name string) int { return e.relIdx[name] }

// CommitBatch applies a sequence of updates spanning any of the query's
// relations as one atomic maintenance commit. The ops are validated first,
// in order — arity against each relation's schema, deletes against the
// stored multiplicities plus the preceding ops of the batch — and on any
// error (an unknown relation, an ArityError, a MultiplicityError) the
// engine is left completely unchanged, unlike a sequential Update loop,
// which would have applied the prefix. On success the whole batch commits
// under one writer-lock hold and publishes one epoch: a concurrent
// Snapshot observes either none or all of it, never a half-applied batch.
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
	// The writer lock covers the whole commit: a Snapshot captured while
	// the batch is in flight blocks until the commit and then observes the
	// post-batch state; one captured before observes the pre-batch state.
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commitLocked(ops)
}

// commitLocked is the commit envelope, under the writer lock: validate,
// log, apply. The commit hook is the durability point — the validated op
// stream reaches the commit log (if any) before the first relation write,
// and a hook error aborts with the engine untouched; apply cannot fail
// after validation, so a logged commit is a committed one. A commit with
// no nonzero-mult op is never logged: applyStagedLocked drops it.
func (e *Engine) commitLocked(ops []BatchOp) error {
	if err := e.prepareLocked(ops); err != nil {
		return err
	}
	if e.commitHook != nil && e.stagedApplied > 0 {
		if err := e.runCommitHookLocked(e.epoch+1, ops); err != nil {
			e.releaseStagedLocked()
			return err
		}
	}
	e.applyStagedLocked()
	return nil
}

// Update applies a single-tuple update δR = {t → m} to relation rel as a
// one-op commit: m > 0 inserts, m < 0 deletes, m == 0 validates and does
// nothing. Deletes that exceed the stored multiplicity are rejected. The
// amortized cost is O(N^(δε)) (Proposition 27).
func (e *Engine) Update(rel string, t tuple.Tuple, m int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hookOp[0] = BatchOp{Rel: rel, Row: t, Mult: m}
	err := e.commitLocked(e.hookOp[:])
	e.hookOp[0] = BatchOp{} // drop the reference into the caller's row
	return err
}

// PrepareCommit is the first half of a two-phase commit: it acquires the
// engine's writer lock and validates the batch exactly as CommitBatch
// does. On an error the lock is released and the engine is untouched. On
// success the validated batch stays staged and THE WRITER LOCK REMAINS
// HELD — the engine admits no other write and no snapshot capture — until
// the caller resolves the prepared state with exactly one ApplyPrepared or
// AbortPrepared call (from any goroutine). The ops (and the rows they
// reference) must stay unmodified until then.
//
// The split exists for multi-engine coordinators (internal/federation):
// prepare every shard, and only when all of them accepted, apply all of
// them — an error on any shard aborts the others untouched, preserving
// all-or-nothing across engines.
func (e *Engine) PrepareCommit(ops []BatchOp) error {
	e.mu.Lock()
	if err := e.prepareLocked(ops); err != nil {
		e.mu.Unlock()
		return err
	}
	return nil
}

// ApplyPrepared is the second half of a two-phase commit: it applies the
// batch staged by a successful PrepareCommit, publishes one epoch (none if
// the batch had no nonzero-mult op), and releases the writer lock. It
// panics if no prepared batch is staged.
func (e *Engine) ApplyPrepared() {
	if !e.staged {
		panic("core: ApplyPrepared without a successful PrepareCommit")
	}
	e.applyStagedLocked()
	e.mu.Unlock()
}

// AbortPrepared discards the batch staged by a successful PrepareCommit —
// the engine state, including its epoch, is exactly as before the prepare
// — and releases the writer lock. It panics if no prepared batch is
// staged.
func (e *Engine) AbortPrepared() {
	if !e.staged {
		panic("core: AbortPrepared without a successful PrepareCommit")
	}
	e.releaseStagedLocked()
	e.mu.Unlock()
}

// prepareLocked validates the whole batch in op order under the writer
// lock, tracking the running multiplicity of each distinct
// (relation, tuple) and aggregating the net delta per tuple in first-seen
// order. All grouping state — the relation table's tuple-keyed maps and
// group lists, one set per query relation, indexed by RelID — is pooled on
// the engine (keys reference the caller's rows until the staged batch is
// applied or released), so repeated batches validate without allocating.
// Ops carrying a pre-resolved RelID skip the name lookup entirely;
// unresolved ops keep a last-name fast path in front of the map, since
// ingest streams are usually runs of one relation. A one-op commit has
// nothing to aggregate and skips the tuple-keyed map, whose Reset after any
// earlier large batch is O(capacity).
//
// On success the aggregated groups stay staged on the engine
// (e.batchTouched / e.relTab) for applyStagedLocked; on an error every
// entry is released and the engine is untouched.
func (e *Engine) prepareLocked(ops []BatchOp) error {
	if !e.preprocessed {
		return fmt.Errorf("core: commit: %w (run Preprocess first)", ErrNotBuilt)
	}
	if e.opts.Mode != viewtree.Dynamic {
		return fmt.Errorf("core: %w; rebuild with Mode: Dynamic for updates", ErrStatic)
	}
	if e.degraded != nil {
		return e.degraded
	}
	single := len(ops) == 1
	applied := 0
	lastID := 0
	resolvedID, resolvedName := 0, ""
	var br *relEntry
	var err error
	for i := range ops {
		op := &ops[i]
		id := op.RelID
		if id == 0 {
			if resolvedID == 0 || op.Rel != resolvedName {
				resolvedID = e.relIdx[op.Rel]
				if resolvedID == 0 {
					err = fmt.Errorf("core: %w: %q (query %s)", ErrUnknownRelation, op.Rel, e.orig)
					break
				}
				resolvedName = op.Rel
			}
			id = resolvedID
			// Stamp the resolution back so downstream consumers of the
			// validated stream (the commit hook) see resolved ids without a
			// second lookup pass. Re-submitting the ops stays valid: the id
			// is stable for the engine's lifetime.
			op.RelID = id
		} else if id < 1 || id > len(e.relTab) {
			err = fmt.Errorf("core: %w: %q (op %d carries invalid relation id %d)", ErrUnknownRelation, op.Rel, i, id)
			break
		}
		if id != lastID {
			br = &e.relTab[id-1]
			if !br.touched {
				br.touched = true
				e.batchTouched = append(e.batchTouched, id)
			}
			lastID = id
		}
		if len(op.Row) != br.arity {
			err = &relation.ArityError{Relation: br.name, Tuple: op.Row.Clone(), Schema: br.occs[0].base.Schema()}
			break
		}
		if op.Mult == 0 {
			// Still validated above — a zero-mult op against an unknown
			// relation or with the wrong arity must not slip through — but
			// it contributes nothing to the deltas.
			continue
		}
		gi, h, seen := 0, uint64(0), false
		if !single {
			gi, h, seen = br.val.GetHash(op.Row)
		}
		if !seen {
			gi = len(br.groups)
			br.groups = append(br.groups, batchGroup{t: op.Row, stored: br.occs[0].base.Mult(op.Row)})
			if !single {
				br.val.PutHashed(h, op.Row, gi)
			}
		}
		g := &br.groups[gi]
		if g.stored+g.net+op.Mult < 0 {
			err = &relation.MultiplicityError{Relation: br.name, Tuple: op.Row.Clone(),
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
// staged by prepareLocked, relation-major, in first-touched order — one
// aggregated delta per relation (zero-net tuples drop out), run through
// every occurrence's routes. Each relation's validation state only reads
// its own pre-batch multiplicities, so earlier relations' propagation
// cannot invalidate later groups. The major-rebalance trigger is evaluated
// once, after every relation's pass (rebalanceBatchLocked), and the whole
// commit publishes one epoch. A staged batch without a nonzero-mult op
// commits nothing and publishes no epoch.
func (e *Engine) applyStagedLocked() {
	if e.stagedApplied == 0 {
		e.releaseStagedLocked()
		return
	}
	// The commit will mutate relations: release the cached snapshot
	// generation first so an idle cache does not force copy-on-write.
	e.invalidateGenLocked()
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
				e.applyBatchOcc(rt, d)
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
// once) and recompute everything. Evaluating the trigger once per commit
// — after every relation's pass — is deliberate hysteresis: a batch whose
// early relations barely cross an M doubling and whose later relations
// shrink N back re-materializes zero times, where a per-relation trigger
// re-materialized on the way up and again on the way down. Within a pass
// the stale M only affects rebalancing heuristics (θ), never view
// contents, and the strict repartition here subsumes any interim light
// routing.
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
	e.majorRebalance()
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
		br.val.Reset()
		br.touched = false
	}
	e.batchTouched = e.batchTouched[:0]
	e.staged = false
	e.stagedApplied = 0
}

// batchKey is the per-distinct-partition-key state of one applyBatchOcc
// pass. The key tuple points into the engine's pooled key arena
// (batchKeyBuf) — for a one-row delta, into the partition route's key
// scratch — and is valid for the duration of the pass.
type batchKey struct {
	key   tuple.Tuple
	light bool // the key was new or light before the pass: its rows take the light step
	rows  []int
}

// appendBatchKey appends a batchKey to keys, reusing the rows buffer of a
// previously pooled slot when the slice grows within capacity.
func appendBatchKey(keys []batchKey, key tuple.Tuple, light bool) []batchKey {
	if len(keys) < cap(keys) {
		keys = keys[:len(keys)+1]
		bk := &keys[len(keys)-1]
		bk.key, bk.light = key, light
		bk.rows = bk.rows[:0]
		return keys
	}
	return append(keys, batchKey{key: key, light: light})
}

// applyBatchOcc is the maintenance kernel: UpdateTrees (Figure 19) for the
// aggregated delta d of one occurrence relation, with the per-update work
// hoisted to per-delta or per-distinct-key, followed by the
// minor-rebalancing checks once per distinct key (Figure 22 lines 9–15).
// Every commit's delta takes it, a single-tuple Update's as a batch of one,
// which size guards keep cheap: a one-row delta skips the grouping tables, a
// partition whose keys all route light takes d itself as its light delta,
// and an occurrence without partitions returns before computing θ. The major-rebalance trigger is NOT evaluated here — it
// is deferred to the commit boundary (rebalanceBatchLocked), so a
// multi-relation commit whose interim sizes oscillate across a threshold
// re-materializes at most once.
func (e *Engine) applyBatchOcc(rt *relRoutes, d *delta) {
	base := rt.base

	// Capture the pre-update partition state per distinct key (Figure 19
	// line 10 needs the pre-update degrees to route to the light parts).
	// The grouping table, the arena holding the distinct keys (both on the
	// engine) and each partition's batchKey list are reset, not
	// reallocated, so this pass allocates only when a delta grows past every
	// previous one. A one-row delta has one key per partition, left in the
	// route's key scratch: it needs neither the table nor the arena.
	single := len(d.rows) == 1
	e.batchKeyBuf = e.batchKeyBuf[:0]
	for _, pr := range rt.parts {
		keys := pr.keys[:0]
		if !single {
			e.groupMap.Reset()
		}
		for ri := range d.rows {
			pr.keyScratch = pr.p.AppendKeyOf(pr.keyScratch[:0], d.rows[ri].t)
			key := pr.keyScratch
			ki, h, seen := 0, uint64(0), false
			if !single {
				ki, h, seen = e.groupMap.GetHash(key)
			}
			if !seen {
				ki = len(keys)
				if !single {
					start := len(e.batchKeyBuf)
					e.batchKeyBuf = append(e.batchKeyBuf, key...)
					key = e.batchKeyBuf[start:len(e.batchKeyBuf):len(e.batchKeyBuf)]
					e.groupMap.PutHashed(h, key, ki)
				}
				keys = appendBatchKey(keys, key, pr.p.IsLight(key) || pr.p.Degree(key) == 0)
			}
			keys[ki].rows = append(keys[ki].rows, ri)
		}
		pr.keys = keys
	}

	// Apply the delta to the base relation, maintaining N incrementally,
	// then propagate it through every main tree and every affected All
	// tree. The light parts and ∃H relations are untouched until every tree
	// has seen the delta.
	before := base.Size()
	for i := range d.rows {
		base.MustAdd(d.rows[i].t, d.rows[i].m)
	}
	if rt.countsN {
		e.n += base.Size() - before
	}
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

	// Route to the light parts, one delta per partition: a key's rows take
	// the light step (lines 10–14) if the key was new or light before the
	// delta; then run the minor-rebalancing checks once per distinct key. If
	// the delta drove N outside the size invariant, θ is stale for these
	// checks — harmless, since the commit-boundary rebalance strictly
	// repartitions everything afterwards.
	theta := e.Theta()
	for _, pr := range rt.parts {
		keys := pr.keys
		light := 0
		for ki := range keys {
			if keys[ki].light {
				light++
			}
		}
		switch {
		case light == len(keys):
			e.lightStep(pr, d, keys)
		case light > 0:
			ld := e.getDelta()
			for ki := range keys {
				if keys[ki].light {
					for _, ri := range keys[ki].rows {
						ld.appendRow(d.rows[ri].t, d.rows[ri].m)
					}
				}
			}
			e.lightStep(pr, ld, keys)
			e.putDelta(ld)
		}
		for ki := range keys {
			e.rebalanceKey(pr, keys[ki].key, keys[ki].light, theta)
		}
	}
}

// refreshBatchH refreshes ∃H once per distinct indicator key appearing in
// the delta and propagates the resulting δ(∃H) changes. The distinct-key set
// is a pooled map, which a one-row delta does not need; keys are copied into
// its arena because the projection scratch is overwritten per row.
func (e *Engine) refreshBatchH(ir *indRoute, d *delta) {
	single := len(d.rows) == 1
	if !single {
		e.seenKeys.Reset()
	}
	for i := range d.rows {
		ir.keyScratch = ir.keyProj.AppendTo(ir.keyScratch[:0], d.rows[i].t)
		if !single {
			_, h, ok := e.seenKeys.GetHash(ir.keyScratch)
			if ok {
				continue
			}
			e.seenKeys.PutCopyHashed(h, ir.keyScratch, 0)
		}
		if dh := e.refreshH(ir.s, ir.keyScratch); dh != 0 {
			e.propagateIndicator(ir.s, ir.keyScratch, dh)
		}
	}
}
