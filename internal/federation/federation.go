// Package federation scatters a hierarchical query over K independent
// core engines (shards) and gathers their results, multiplying the
// engine-level wins — allocation-free commits, copy-on-write snapshots —
// by K mostly-independent workers. A core engine propagates a commit on the
// goroutine that makes it, one view tree after another (a commit starts no
// goroutine in core; core.Options.Workers is a no-op): the shards are the
// only parallelism of a commit. Preprocess gives each shard a K-th of
// GOMAXPROCS for the helpers of its large fills.
//
// # Sharding a hierarchical query
//
// In a connected hierarchical query every atom contains the root
// variable(s) of the component's canonical variable order: for any two
// variables, their atom sets are nested or disjoint, so a connected
// component has at least one variable occurring in every atom. Those root
// variables are a join key present in EVERY relation of the component —
// partitioning all of the component's relations by one hash of the root
// values splits the component's result disjointly across shards:
//
//	comp(⋃ₛ Rₛ, ⋃ₛ Sₛ, …) = ⋃ₛ comp(Rₛ, Sₛ, …)
//
// because tuples with different root values never join. One component is
// sharded this way (the shard component); the relations of every other
// component are broadcast — copied to all shards — and the full result
//
//	Q = shardComp × rest
//
// distributes over the disjoint union, so summing the per-shard results
// (as bags) is exact, multiplicities included. The gather streams that sum:
// it is the union of the shard streams (Durand–Strozecki, the paper's
// Figure 15), which emits each distinct tuple once with its multiplicity
// summed by lookups on the other shards, and keeps the shards' delay plus
// O(K²) lookups per tuple. When the shard key variables are all free, each
// distinct result tuple is produced by exactly one shard (its key values
// hash to one shard), so the union skips the lookups and concatenates.
//
// Repeated relation symbols (footnote 2 of the paper) are rewritten to
// per-occurrence relations HERE, at K > 1: two occurrences of R may sit
// at different positions relative to the shard key, so an R-tuple can
// route to different shards per occurrence. Shard engines are built on the
// rewritten query and never see a repeated symbol.
//
// # One shard
//
// A federation of one shard is the engine behind every public Engine that
// is not sharded, and it passes through: no routing table and no
// occurrence rewriting (relation and root-view names are the query's own),
// LoadRows and commits go to the shard as given, its errors come back bare,
// Explain is the shard's, and enumeration is the shard's own stream.
//
// # Commit protocol
//
// A batch is validated and scattered once — each op resolved by its
// relation name, then per occurrence sent to one shard (hash of the key
// columns) or all shards (broadcast) under the occurrence's name — and
// committed two-phase: PrepareCommit on every shard with a non-empty
// sub-batch, then the commit hook (the durability point, CommitHook), then
// ApplyPrepared on all of them in parallel. Any failure aborts the
// prepared shards untouched, so on error every shard's state AND epoch are
// exactly as before. A successful commit advances the federation epoch by
// one; Snapshot captures all shard snapshots under the federation lock, so
// a snapshot observes a state where every shard has applied exactly the
// same prefix of commits.
package federation

import (
	"fmt"
	"iter"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ivmeps/internal/core"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

// Options configures a federation.
type Options struct {
	// Shards is the shard count K; values below 1 mean a single shard.
	Shards int
	// Engine configures every shard's core engine (ε, mode).
	Engine core.Options
}

// ShardError reports a validation failure detected by one shard of a
// sharded engine's (NewSharded) federated commit, identifying the shard.
// It wraps the underlying error — typically a MultiplicityError for a
// delete the owning shard rejected — so errors.Is and errors.As reach
// through it; match the shard attribution itself with errors.As:
//
//	var se *ivmeps.ShardError
//	if errors.As(err, &se) { ... se.Shard ...
//
// Failures detected before any shard is involved — an unknown relation or
// an arity mismatch, caught while scattering the batch — carry no shard
// attribution and are returned without a ShardError wrapper, exactly as an
// unsharded engine returns them. When several shards would reject their
// sub-batches, the lowest such shard is reported.
type ShardError struct {
	Shard int
	Err   error
}

// Error formats the shard-attributed failure.
func (e *ShardError) Error() string {
	return fmt.Sprintf("ivmeps: shard %d: %v", e.Shard, e.Err)
}

// Unwrap exposes the shard's error to errors.Is / errors.As.
func (e *ShardError) Unwrap() error { return e.Err }

// fedOcc routes one occurrence of an original relation: the occurrence's
// relation name in the shard engines, which resolve it themselves, and the
// row positions forming the shard key — nil for broadcast occurrences.
type fedOcc struct {
	name   string
	keyPos []int
}

// fedRel is the routing entry of one original relation.
type fedRel struct {
	name   string
	arity  int
	schema tuple.Schema
	occs   []fedOcc
}

// CommitHook logs one commit after every shard prepared it and before any
// applies it: epoch is the federation epoch the commit will publish and
// ops the caller's whole op list, every RelID resolved. Commits without a
// nonzero-mult op are not logged. It runs under the federation lock; ops
// are valid only during the call. Apply cannot fail after validation, so a
// logged commit is a committed one; a hook error fails the commit with
// every shard unchanged and latches the federation read-only (Degrade).
type CommitHook func(epoch uint64, ops []core.BatchOp) error

// Fed is a federation of K core engines over one hierarchical query, and
// their owner: a core engine takes no lock, and the federation lock is the
// one writer lock. Every Fed method that reaches a shard engine — loads,
// commits, snapshot capture, subscriptions, and the reads of live state —
// holds it; snapshots enumerate outside it, concurrently with commits,
// exactly as core snapshots do.
type Fed struct {
	orig *query.Query // user's query
	k    int
	seed uint64 // shard-routing hash seed

	// concat reports whether the shard key variables are all free: the
	// shards' streams are then disjoint, and the gather concatenates them
	// without the lookups the union of overlapping streams makes.
	concat    bool
	shardVars tuple.Schema

	// The routing table, empty at K = 1.
	relList []fedRel
	relIdx  map[string]int    // original relation name -> index+1 into relList
	relOf   map[string]string // occurrence name -> original relation name

	shards  []*core.Engine
	runners *runnerSet
	cleanup runtime.Cleanup

	mu    sync.Mutex
	built bool
	epoch uint64

	// hook, when set, logs every commit (CommitHook); degraded latches the
	// first hook error, or Degrade's, and refuses every later commit with it.
	hook     CommitHook
	degraded error

	// spareSnaps holds a closed snapshot's shards 1..K−1 for the next
	// capture.
	spareSnaps atomic.Pointer[shardSnaps]

	// Pooled commit scratch: the per-shard sub-batches of the scatter
	// phase, the prepared-shard list, the shard-key extraction buffer, and
	// the reused apply barrier. All keep their capacity across commits, so
	// a warmed federation commits without heap allocation.
	sub        [][]core.BatchOp
	prepared   []int
	keyScratch tuple.Tuple
	applyWG    sync.WaitGroup
	op1        [1]core.BatchOp
}

// New creates a federation of opts.Shards engines for a hierarchical
// query. The query constraints are those of core.New, which checks them.
func New(q *query.Query, opts Options) (*Fed, error) {
	f := &Fed{orig: q, k: 1, concat: true}
	shardQ := q
	if opts.Shards > 1 {
		shardQ = f.route(q, opts.Shards)
	}
	f.shards = make([]*core.Engine, f.k)
	for s := range f.shards {
		e, err := core.New(shardQ, opts.Engine)
		if err != nil {
			return nil, err
		}
		f.shards[s] = e
	}
	return f, nil
}

// route sets f up for k > 1 shards — shard key, gather mode and routing
// table — and returns the query the shards run: q with each occurrence of
// a repeated relation symbol renamed, since each occurrence routes by its
// own key positions and must be an independent relation in the shard
// engines.
func (f *Fed) route(q *query.Query, k int) *query.Query {
	rq := q.Clone()
	repeated := q.HasRepeatedSymbols()
	occAtoms := map[string][]int{} // original name -> atom indexes
	for i := range rq.Atoms {
		name := rq.Atoms[i].Rel
		occAtoms[name] = append(occAtoms[name], i)
		if repeated {
			rq.Atoms[i].Rel = fmt.Sprintf("%s__f%d", name, len(occAtoms[name]))
		}
	}
	shardAtom, keyVars, concat := chooseShardKey(rq)
	if len(keyVars) == 0 {
		return q // no valid query: core.New reports why
	}
	f.k, f.concat, f.shardVars = k, concat, keyVars
	f.seed = tuple.NewSeed()
	f.relIdx, f.relOf = map[string]int{}, map[string]string{}

	// Routing table, in the original query's first-occurrence relation
	// order.
	for _, name := range q.RelationNames() {
		idxs := occAtoms[name]
		first := q.Atoms[idxs[0]]
		fr := fedRel{name: name, arity: len(first.Vars), schema: first.Vars.Clone()}
		for _, ai := range idxs {
			o := fedOcc{name: rq.Atoms[ai].Rel}
			f.relOf[o.name] = name
			if shardAtom[ai] {
				for _, v := range keyVars {
					o.keyPos = append(o.keyPos, rq.Atoms[ai].Vars.IndexOf(v))
				}
			}
			fr.occs = append(fr.occs, o)
		}
		f.relIdx[name] = len(f.relList) + 1
		f.relList = append(f.relList, fr)
	}
	f.sub = make([][]core.BatchOp, k)
	f.keyScratch = make(tuple.Tuple, len(keyVars))
	return rq
}

// chooseShardKey picks the shard component and key of a rewritten query:
// per connected component, the root variables (those occurring in every
// atom of the component — nonempty for every component with variables, by
// hierarchy) are a valid shard key, and any subset still is. Preferred is
// a component with a free root variable — sharding on the free subset
// makes the gather a concatenation — then the component with the most
// atoms (most relations benefit from partitioning), then the first.
// Returns which atoms belong to the chosen component, the key variables
// (ordered by their appearance in the component's first atom, the order
// every occurrence extracts key values in), and whether the gather can
// concatenate.
func chooseShardKey(q *query.Query) (shardAtom []bool, keyVars tuple.Schema, concat bool) {
	shardAtom = make([]bool, len(q.Atoms))
	atomIdx := map[string]int{}
	for i, a := range q.Atoms {
		atomIdx[a.Rel] = i // relation symbols are unique after rewriting
	}
	bestAtoms := -1
	var bestIdxs []int
	for _, comp := range q.ConnectedComponents() {
		var idxs []int
		for _, a := range comp.Atoms {
			idxs = append(idxs, atomIdx[a.Rel])
		}
		// Root variables, in first-atom schema order.
		var roots, rootsFree tuple.Schema
		for _, v := range comp.Atoms[0].Vars {
			if len(comp.AtomsOf(v)) == len(comp.Atoms) {
				roots = append(roots, v)
				if q.Free.Contains(v) {
					rootsFree = append(rootsFree, v)
				}
			}
		}
		if len(roots) == 0 {
			continue
		}
		key, keyConcat := roots, false
		if len(rootsFree) > 0 {
			key, keyConcat = rootsFree, true
		}
		if keyConcat && !concat || keyConcat == concat && len(comp.Atoms) > bestAtoms {
			bestAtoms, bestIdxs, keyVars, concat = len(comp.Atoms), idxs, key, keyConcat
		}
	}
	for _, i := range bestIdxs {
		shardAtom[i] = true
	}
	return shardAtom, keyVars, concat
}

// shardRange is the one routing decision, shared by LoadRows and the commit
// scatter: occurrence o of a row goes to the shards [lo, hi) — the one shard
// its key columns hash to (copied into the pooled scratch first) for a
// shard-component occurrence, every shard for a broadcast one.
func (f *Fed) shardRange(o *fedOcc, row tuple.Tuple) (lo, hi int) {
	if o.keyPos == nil {
		return 0, f.k
	}
	for j, p := range o.keyPos {
		f.keyScratch[j] = row[p]
	}
	s := int(tuple.HashPrefix(f.seed, f.keyScratch, len(o.keyPos)) % uint64(f.k))
	return s, s + 1
}

// Shards returns the shard count K.
func (f *Fed) Shards() int { return f.k }

// ShardOf returns the shard rel's first occurrence routes row to, for tests.
func (f *Fed) ShardOf(rel string, row tuple.Tuple) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.k == 1 {
		return 0
	}
	s, _ := f.shardRange(&f.relList[f.relIdx[rel]-1].occs[0], row)
	return s
}

// Shard returns shard s's engine, for inspection and tests while no commit
// is in flight: the engine takes no lock of its own.
func (f *Fed) Shard(s int) *core.Engine { return f.shards[s] }

// Explain describes the federation's routing — shard count, shard key, and
// gather mode — followed by shard 0's plan (core's Engine.Explain), which
// every shard shares: all run the same occurrence-rewritten query. At
// K = 1 it is shard 0's plan alone.
func (f *Fed) Explain() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.k == 1 {
		return f.shards[0].Explain()
	}
	gather := "union"
	if f.concat {
		gather = "concatenating"
	}
	return fmt.Sprintf("federation: %d shard(s), shard key %v, %s gather\nshard 0:\n%s",
		f.k, f.shardVars, gather, f.shards[0].Explain())
}

// LoadRows adds a block of rows of rel ahead of Preprocess — row i is the
// i-th run of arity values in vals, with multiplicity mults[i] — and is the
// one way initial data enters the federation. One shard takes the block as
// given. At K > 1 the whole block is checked first (core.CheckRows), so a
// rejected block is on no shard, and then each row goes, per occurrence, to
// the shard range a committed op on the same row would reach.
func (f *Fed) LoadRows(rel string, vals []tuple.Value, mults []int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.k == 1 {
		return f.shards[0].LoadRows(rel, vals, mults)
	}
	if f.built {
		return fmt.Errorf("federation: Load after Preprocess; use Update or CommitBatch")
	}
	id := f.relIdx[rel]
	if id == 0 {
		return fmt.Errorf("%w: %q (query %s)", core.ErrUnknownRelation, rel, f.orig)
	}
	fr := &f.relList[id-1]
	if err := core.CheckRows(fr.name, fr.schema, vals, mults); err != nil {
		return err
	}
	for i := range mults {
		t := tuple.Tuple(vals[i*fr.arity : (i+1)*fr.arity])
		for oi := range fr.occs {
			o := &fr.occs[oi]
			lo, hi := f.shardRange(o, t)
			for _, e := range f.shards[lo:hi] {
				// Cannot fail: the shard checks what was checked above, as
				// every occurrence of rel has its arity (query.Validate).
				if err := e.LoadRows(o.name, t, mults[i:i+1]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Preprocess runs the core preprocessing stage over what LoadRows routed to
// the shards, on all shards in parallel, each with its share of GOMAXPROCS
// for its base seals and large fills (core.Engine.Preprocess). alongside,
// unless nil, runs beside the one shard's indexing and materialization once
// its base relations are sealed, as core's Preprocess runs it, and has
// returned when Preprocess returns; like BaseState it needs one shard. It
// runs once; a second call is an error.
func (f *Fed) Preprocess(alongside func(bases []core.Base)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.built {
		return fmt.Errorf("federation: already preprocessed")
	}
	if alongside != nil && f.k != 1 {
		return fmt.Errorf("federation: Preprocess alongside needs one shard, not %d", f.k)
	}
	// Shards 1..K−1 preprocess on goroutines of their own, shard 0 on the
	// caller's, so one shard starts no goroutine but its engine's helpers.
	// The K shards preprocess at once, so each takes a K-th of GOMAXPROCS
	// for those helpers, one at least.
	cores := max(1, runtime.GOMAXPROCS(0)/f.k)
	var wg sync.WaitGroup
	for _, e := range f.shards[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Preprocess(cores, nil)
		}()
	}
	f.shards[0].Preprocess(cores, alongside)
	wg.Wait()
	f.built = true
	f.epoch = 1 // first committed state, matching a single engine
	return nil
}

// Update applies a single-tuple update {t → m} to relation rel as a
// one-op commit: m > 0 inserts, m < 0 deletes, m == 0 validates and does
// nothing (no epoch), matching core's Update.
func (f *Fed) Update(rel string, t tuple.Tuple, m int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op1[0] = core.BatchOp{Rel: rel, Row: t, Mult: m}
	err := f.commitLocked(f.op1[:])
	f.op1[0] = core.BatchOp{} // drop the row reference
	return err
}

// CommitBatch applies a batch of updates — spanning any of the query's
// relations — as one atomic federated commit (see the package comment). On
// any error — a MultiplicityError detected by the shard owning the tuple
// arrives wrapped in a ShardError, except at K = 1 — every shard's state
// and epoch are exactly as before the call. On success the federation
// epoch advances by one; a batch with no nonzero-mult op commits nothing,
// as in core. Every op's RelID is overwritten with its relation's id, as
// in core; the rows are referenced, not copied, until CommitBatch returns.
func (f *Fed) CommitBatch(ops []core.BatchOp) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.commitLocked(ops)
}

// commitLocked is the federation's commit envelope: prepare, log, apply.
func (f *Fed) commitLocked(ops []core.BatchOp) error {
	if !f.built {
		return fmt.Errorf("federation: commit: %w (run Preprocess first)", core.ErrNotBuilt)
	}
	if f.degraded != nil {
		return f.degraded
	}
	err := f.prepareLocked(ops)
	if err == nil && len(f.prepared) > 0 && f.hook != nil {
		if err = f.hook(f.epoch+1, ops); err != nil {
			f.degraded = err
			f.abortLocked()
		}
	}
	if err != nil || len(f.prepared) == 0 {
		// Failed, or validated without a nonzero-mult op: nothing commits.
		f.clearSubsLocked()
		return err
	}
	// Apply everywhere. A single prepared shard applies inline (the K = 1
	// path pays no goroutine handoff); several apply in parallel on the
	// persistent per-shard runners.
	if len(f.prepared) == 1 {
		f.shards[f.prepared[0]].ApplyPrepared()
	} else {
		f.ensureRunnersLocked()
		f.applyWG.Add(len(f.prepared))
		for _, s := range f.prepared {
			f.runners.chans[s] <- &f.applyWG
		}
		f.applyWG.Wait()
	}
	f.clearSubsLocked()
	f.epoch++ // commit point: all shards have applied
	return nil
}

// prepareLocked prepares every shard the batch changes, in shard order, and
// lists them in f.prepared. Each successful prepare leaves that shard's
// batch staged; on a failure the shards already prepared are aborted
// untouched and none is listed.
func (f *Fed) prepareLocked(ops []core.BatchOp) error {
	f.prepared = f.prepared[:0]
	if f.k == 1 {
		// The ops as given: the shard resolves them itself.
		if err := f.shards[0].PrepareCommit(ops); err != nil {
			return err
		}
		if !slices.ContainsFunc(ops, func(op core.BatchOp) bool { return op.Mult != 0 }) {
			f.shards[0].AbortPrepared()
			return nil
		}
		f.prepared = append(f.prepared, 0)
		return nil
	}
	if err := f.scatterLocked(ops); err != nil {
		return err
	}
	for s := 0; s < f.k; s++ {
		if len(f.sub[s]) == 0 {
			continue
		}
		if err := f.shards[s].PrepareCommit(f.sub[s]); err != nil {
			f.abortLocked()
			// The shard names the occurrence; the caller knows the relation.
			if me, ok := err.(*relation.MultiplicityError); ok {
				me.Relation = f.relOf[me.Relation]
			}
			return &ShardError{Shard: s, Err: err}
		}
		f.prepared = append(f.prepared, s)
	}
	return nil
}

// abortLocked aborts every prepared shard.
func (f *Fed) abortLocked() {
	for _, p := range f.prepared {
		f.shards[p].AbortPrepared()
	}
	f.prepared = f.prepared[:0]
}

// scatterLocked validates each op (relation known, arity matches — the
// shard key is unreadable otherwise) and appends it to the sub-batch of
// every shard it affects: per occurrence, the key-hash shard for
// shard-component occurrences, every shard for broadcast occurrences. Ops
// are resolved by name, through a one-entry cache in front of the map,
// which writes the relation's id into the op for the commit hook, and
// reach the shards under their occurrence names, which each shard resolves
// in its own validation. The sub-batches are pooled; rows are referenced,
// not copied. Ops of one (occurrence, tuple) always land on one shard in
// their original order, so per-shard validation of running multiplicities
// agrees with a single engine's.
func (f *Fed) scatterLocked(ops []core.BatchOp) error {
	var fr *fedRel
	id := 0
	for i := range ops {
		op := &ops[i]
		if fr == nil || op.Rel != fr.name {
			if id = f.relIdx[op.Rel]; id == 0 {
				return fmt.Errorf("%w: %q (query %s)", core.ErrUnknownRelation, op.Rel, f.orig)
			}
			fr = &f.relList[id-1]
		}
		op.RelID = id
		if len(op.Row) != fr.arity {
			return &relation.ArityError{Relation: fr.name, Row: op.Row.Clone(), Schema: fr.schema.Names()}
		}
		if op.Mult == 0 {
			continue // validated above; contributes nothing to any shard
		}
		for oi := range fr.occs {
			o := &fr.occs[oi]
			lo, hi := f.shardRange(o, op.Row)
			for s := lo; s < hi; s++ {
				f.sub[s] = append(f.sub[s], core.BatchOp{Rel: o.name, Row: op.Row, Mult: op.Mult})
			}
		}
	}
	return nil
}

// clearSubsLocked empties the pooled sub-batches, dropping the references
// into the caller's rows while keeping capacity.
func (f *Fed) clearSubsLocked() {
	for s := range f.sub {
		clear(f.sub[s])
		f.sub[s] = f.sub[s][:0]
	}
}

// runnerSet holds the persistent per-shard apply goroutines. It must not
// reference the Fed, so an abandoned federation stays collectible; a
// runtime cleanup closes the channels if Close was never called.
type runnerSet struct {
	chans []chan *sync.WaitGroup
}

func (r *runnerSet) close() {
	for _, ch := range r.chans {
		close(ch)
	}
}

// applyRunner applies prepared commits on one shard, for a committer that
// holds the federation lock and waits on wg.
func applyRunner(e *core.Engine, ch chan *sync.WaitGroup) {
	for wg := range ch {
		e.ApplyPrepared()
		wg.Done()
	}
}

// ensureRunnersLocked lazily starts the per-shard apply runners, so
// federations that never commit to more than one shard spawn nothing.
func (f *Fed) ensureRunnersLocked() {
	if f.runners != nil {
		return
	}
	r := &runnerSet{}
	for s := range f.shards {
		ch := make(chan *sync.WaitGroup, 1)
		r.chans = append(r.chans, ch)
		go applyRunner(f.shards[s], ch)
	}
	f.runners = r
	f.cleanup = runtime.AddCleanup(f, func(r *runnerSet) { r.close() }, r)
}

// Epoch returns the number of committed federation write operations
// (Preprocess counts as the first), the federation analogue of
// core's Engine.Epoch.
func (f *Fed) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// N returns the current database size: distinct tuples summed once per
// original relation — over all shards for partitioned relations (their
// shard parts are disjoint), over one shard for broadcast relations
// (every shard holds the same copy); at K = 1, the shard's. Like Epoch it
// takes the federation lock, so it observes a committed state from any
// goroutine.
func (f *Fed) N() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.k == 1 {
		return f.shards[0].N()
	}
	n := 0
	for i := range f.relList {
		o := &f.relList[i].occs[0]
		if o.keyPos == nil {
			n += f.shards[0].BaseRelation(o.name).Size()
			continue
		}
		for _, e := range f.shards {
			n += e.BaseRelation(o.name).Size()
		}
	}
	return n
}

// Stats returns the shard engines' activity counters, summed. Broadcast
// relations contribute to every shard, so counters like Updates can exceed
// a single engine's for the same workload; the counters measure work done,
// not logical operations.
func (f *Fed) Stats() core.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out core.Stats
	for _, e := range f.shards {
		s := e.Stats()
		out.Updates += s.Updates
		out.MinorRebalances += s.MinorRebalances
		out.MajorRebalances += s.MajorRebalances
		out.ViewDeltas += s.ViewDeltas
		out.Batches += s.Batches
		out.BatchRelations += s.BatchRelations
	}
	return out
}

// Close releases the federation's apply runners. It is idempotent; the
// federation remains usable (runners restart lazily on the next
// multi-shard commit).
func (f *Fed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.runners != nil {
		f.cleanup.Stop()
		f.runners.close()
		f.runners = nil
	}
}

// SetHook installs (or, with nil, removes) the commit hook. It does not
// clear the degraded latch, which lasts for the federation's lifetime:
// commits must not resume unlogged after the log wedged.
func (f *Fed) SetHook(h CommitHook) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hook = h
}

// Degrade latches the federation read-only with err, as a failing hook
// does, unless it already is: every later commit is refused with the
// latched error, while snapshots keep serving the last committed state.
func (f *Fed) Degrade(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.degraded == nil {
		f.degraded = err
	}
}

// BaseState captures the committed epoch and every base relation of a
// one-shard federation for a checkpoint (core's Engine.BaseState). It
// refuses with the latched error on a degraded federation, since a
// checkpoint claims its epoch is durably reconstructible, and at K > 1.
func (f *Fed) BaseState() (uint64, []core.Base, error) {
	if f.k > 1 {
		return 0, nil, fmt.Errorf("federation: BaseState needs one shard, not %d", f.k)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.degraded != nil {
		return 0, nil, f.degraded
	}
	return f.shards[0].BaseState()
}

// RestoreEpoch seats the federation's epoch, and every shard's, at a
// recovered value: for the recovery path only, after Preprocess and the
// replay of the log tail, before a hook or a sink is attached.
func (f *Fed) RestoreEpoch(epoch uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epoch = epoch
	for _, e := range f.shards {
		e.RestoreEpoch(epoch)
	}
}

// SubscribeCommits subscribes sink to the commit stream of a one-shard
// federation and captures its anchor into anchor, which must not hold an
// open snapshot (core's Engine.SubscribeCommits): the anchor observes
// epoch E and the sink receives every commit with epoch > E. At K > 1 it
// returns an error, since the shards' streams are not merged into one.
func (f *Fed) SubscribeCommits(sink core.CommitSink, anchor *Snapshot) error {
	if f.k > 1 {
		return fmt.Errorf("federation: SubscribeCommits needs one shard, not %d", f.k)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.shards[0].SubscribeCommits(sink, &anchor.s0); err != nil {
		return err
	}
	anchor.f, anchor.epoch = f, f.epoch
	return nil
}

// UnsubscribeCommits removes sink (core's Engine.UnsubscribeCommits).
func (f *Fed) UnsubscribeCommits(sink core.CommitSink) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shards[0].UnsubscribeCommits(sink)
}

// RootViews returns the root-view names of a one-shard federation (core's
// Engine.RootViews), and nil at K > 1, whose shards hold parts of theirs.
func (f *Fed) RootViews() []string {
	if f.k > 1 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[0].RootViews()
}

// Snapshot is an immutable view of one committed federation state: the
// shard snapshots of one federation epoch, gathered on enumeration. Like a
// core snapshot it enumerates concurrently with commits on the federation
// and with other snapshots, but is itself single-reader. Close it when
// done so the shard writers can stop preserving its generations. A
// Snapshot must not be copied (go vet reports a copy, through its core
// snapshot): a copy would close its shards twice.
type Snapshot struct {
	f     *Fed // nil once closed
	epoch uint64
	s0    core.Snapshot // shard 0's, inline: K = 1 takes no spare slot
	rest  *shardSnaps   // shards 1..K−1; nil at K = 1
}

// shardSnaps is a snapshot's core snapshots of shards 1..K−1 and the K shard
// iterators of its last pass (nil while a pass holds them), left in the
// federation's one spare slot (Fed.spareSnaps) at Close for the next
// capture, so a warm K > 1 read allocates nothing.
type shardSnaps struct {
	s   []core.Snapshot
	its []core.Iterator
}

// SnapshotInto captures a read-only view of the current committed
// federation state into s, which must not hold an open snapshot. It may be
// called from any goroutine; if a commit is in flight it blocks until the
// commit finishes, then captures every shard at the same federation epoch
// (the lock excludes commits, so no shard can be ahead). Shard captures
// re-pin core's freed contexts (see core.Engine.SnapshotInto); no tuples are
// copied.
func (f *Fed) SnapshotInto(s *Snapshot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.built {
		// Matches core.Engine.SnapshotInto: the panicking entry point of
		// the read path; the public façade converts this to an error.
		panic(core.ErrNotBuilt)
	}
	var rest *shardSnaps
	if f.k > 1 {
		if rest = f.spareSnaps.Swap(nil); rest == nil {
			rest = &shardSnaps{s: make([]core.Snapshot, f.k-1)}
		}
		for i := range rest.s {
			f.shards[i+1].SnapshotInto(&rest.s[i])
		}
	}
	s.f, s.epoch, s.rest = f, f.epoch, rest
	f.shards[0].SnapshotInto(&s.s0)
}

// Epoch identifies the committed federation state the snapshot observes.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Enumerate calls yield for every distinct result tuple of the snapshot's
// state with its multiplicity, stopping early if yield returns false.
// One shard's enumeration is the result. At K > 1 it is the union of the
// shards' streams (union), opened into the snapshot's K iterators, which a
// pass takes out of the snapshot while it runs, so a pass nested in its
// yield opens its own. No shard's result is buffered: a row costs the
// shards' delays and O(K²) lookups.
func (s *Snapshot) Enumerate(yield func(t tuple.Tuple, m int64) bool) {
	if s.f == nil {
		panic("federation: Enumerate on a closed Snapshot")
	}
	if s.rest == nil {
		s.s0.Enumerate(yield)
		return
	}
	rest, its := s.rest, s.rest.its
	if rest.its = nil; its == nil {
		its = make([]core.Iterator, s.f.k)
	}
	defer func() {
		for i := range its {
			its[i].Close()
		}
		if s.rest == rest { // else a yield closed s, which left rest spare
			rest.its = its
		}
	}()
	s.s0.ResultInto(&its[0])
	for i := range rest.s {
		rest.s[i].ResultInto(&its[i+1])
	}
	for {
		t, m, ok := union(its, s.f.concat)
		if !ok || !yield(t, m) {
			return
		}
	}
}

// union returns the next distinct tuple of the streams its with its
// multiplicity summed over them: Durand–Strozecki's union (core's unionIter,
// the paper's Figure 15) over one iterator per shard, its recursion over
// operands unrolled into a climb from its[0]. A candidate of its[0..k−1] that
// its[k] also holds is not passed up: its[k]'s next tuple is, and the
// candidate comes again through its[k]'s own stream. Disjoint streams (an
// all-free shard key) need no lookups: the union concatenates.
func union(its []core.Iterator, disjoint bool) (tuple.Tuple, int64, bool) {
	t, m, ok := its[0].Next()
	for k := 1; k < len(its); k++ {
		if ok && (disjoint || its[k].Lookup(t) == 0) {
			continue
		}
		if tk, mk, more := its[k].Next(); more {
			t, m, ok = tk, mk, true
			for i := 0; i < k && !disjoint; i++ {
				m += its[i].Lookup(tk)
			}
		} else if ok {
			// its[k] is spent, so it emitted t already: climb again.
			t, m, ok = its[0].Next()
			k = 0
		}
	}
	return t, m, ok
}

// View returns an iterator over one root view's rows in a one-shard
// snapshot's state (core's Snapshot.View), and reports whether the view is
// known; at K > 1 none is.
func (s *Snapshot) View(view string) (iter.Seq2[tuple.Tuple, int64], bool) {
	if s.rest != nil {
		return nil, false
	}
	return s.s0.View(view)
}

// Close releases every shard snapshot and leaves those of shards 1..K−1 in
// the federation's spare slot. It is idempotent; the snapshot must not be
// used afterwards.
func (s *Snapshot) Close() {
	if s.f == nil {
		return
	}
	s.s0.Close()
	if rest := s.rest; rest != nil {
		s.rest = nil
		for i := range rest.s {
			rest.s[i].Close()
		}
		s.f.spareSnaps.CompareAndSwap(nil, rest)
	}
	s.f = nil
}
