// Package federation scatters a hierarchical query over K independent
// core engines (shards) and gathers their results, multiplying the
// engine-level wins — allocation-free commits, copy-on-write snapshots —
// by K mostly-independent workers. A core engine propagates a commit on the
// goroutine that makes it, one view tree after another (core starts no
// goroutines; core.Options.Workers is a no-op): the shards are the only
// parallelism.
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
// (as bags) is exact, multiplicities included. When the shard key
// variables are all free, each distinct result tuple is produced by
// exactly one shard (its key values hash to one shard) and gathering is
// pure concatenation, preserving the per-shard enumeration delay; when
// some key variable is bound — including Boolean queries — the gather sums
// multiplicities per distinct tuple across shards.
//
// Repeated relation symbols (footnote 2 of the paper) are rewritten to
// per-occurrence relations HERE, not in core: two occurrences of R may sit
// at different positions relative to the shard key, so an R-tuple can
// route to different shards per occurrence. Shard engines are built on the
// rewritten query and never see a repeated symbol.
//
// # Commit protocol
//
// A batch is validated and scattered once — each op resolved by its
// relation name, then per occurrence sent to one shard (hash of the key
// columns) or all shards (broadcast) under the occurrence's name, which the
// shard resolves again in its own validation — and then committed
// two-phase: PrepareCommit on every shard with a non-empty sub-batch, in
// shard order, and only if all of them accept, ApplyPrepared on all of
// them in parallel (persistent per-shard runner goroutines). Any prepare
// failure aborts the already-prepared shards untouched, so the
// all-or-nothing guarantee of a single engine holds across shards: on
// error, every shard's state AND epoch are exactly as before. A successful
// commit advances the federation epoch by one; Snapshot captures all shard
// snapshots under the federation lock, so a snapshot observes a state
// where every shard has applied exactly the same prefix of commits.
package federation

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ivmeps/internal/core"
	"ivmeps/internal/naive"
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

// ShardError reports an error from one shard of a federated operation,
// identifying the shard. It wraps the shard engine's error, so errors.Is
// and errors.As reach the underlying sentinel or structured error. When
// sub-batches of several shards would fail validation, which shard's error
// is reported is unspecified (the implementation reports the lowest shard
// index with a non-empty sub-batch that failed).
type ShardError struct {
	Shard int
	Err   error
}

// Error formats the shard-attributed failure.
func (e *ShardError) Error() string {
	return fmt.Sprintf("federation: shard %d: %v", e.Shard, e.Err)
}

// Unwrap exposes the shard engine's error to errors.Is / errors.As.
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

// Fed is a federation of K core engines over one hierarchical query.
// Mutation (Preprocess, Update, CommitBatch) and snapshot capture serialize on
// the federation lock; snapshots enumerate outside it, concurrently with
// commits, exactly as core snapshots do.
type Fed struct {
	orig *query.Query // user's query
	q    *query.Query // occurrence-rewritten query (unique relation symbols)
	opts Options
	k    int
	seed uint64 // shard-routing hash seed

	// concat reports whether the shard key variables are all free: the
	// gather is then a plain concatenation of per-shard enumerations
	// (delay-preserving); otherwise the gather aggregates multiplicities
	// per distinct tuple.
	concat    bool
	shardVars tuple.Schema

	relList []fedRel
	relIdx  map[string]int // original relation name -> index+1 into relList

	shards  []*core.Engine
	runners *runnerSet
	cleanup runtime.Cleanup

	mu    sync.Mutex
	built bool
	epoch uint64

	// spareSnaps holds a closed snapshot's shard snapshots for the next
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
// query. The query constraints are those of core.New.
func New(q *query.Query, opts Options) (*Fed, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !q.IsHierarchical() {
		return nil, fmt.Errorf("federation: query is not hierarchical: %s (the paper's algorithms require hierarchical input)", q)
	}
	k := opts.Shards
	if k < 1 {
		k = 1
	}
	f := &Fed{
		orig:   q.Clone(),
		opts:   opts,
		k:      k,
		seed:   tuple.NewSeed(),
		relIdx: map[string]int{},
	}

	// Occurrence rewriting for repeated relation symbols, at the
	// federation layer: each occurrence routes by its own key positions,
	// so occurrences must be independent relations in the shard engines.
	f.q = q.Clone()
	occAtoms := map[string][]int{} // original name -> atom indexes
	if q.HasRepeatedSymbols() {
		seen := map[string]int{}
		for i := range f.q.Atoms {
			name := f.q.Atoms[i].Rel
			seen[name]++
			f.q.Atoms[i].Rel = fmt.Sprintf("%s__f%d", name, seen[name])
			occAtoms[name] = append(occAtoms[name], i)
		}
	} else {
		for i, a := range f.q.Atoms {
			occAtoms[a.Rel] = append(occAtoms[a.Rel], i)
		}
	}

	shardAtom, keyVars, concat := chooseShardKey(f.q)
	if len(keyVars) == 0 {
		// Defensive: Validate guarantees an atom with variables, whose
		// component has root variables — but if nothing is shardable,
		// broadcasting everything to K > 1 shards would K-fold the result,
		// so collapse to one shard.
		f.k = 1
	}
	f.concat = concat
	f.shardVars = keyVars

	// Routing table, in the original query's first-occurrence relation
	// order.
	for _, name := range f.orig.RelationNames() {
		idxs := occAtoms[name]
		first := f.orig.Atoms[idxs[0]]
		fr := fedRel{name: name, arity: len(first.Vars), schema: first.Vars.Clone()}
		for _, ai := range idxs {
			o := fedOcc{name: f.q.Atoms[ai].Rel}
			if shardAtom[ai] {
				for _, v := range keyVars {
					o.keyPos = append(o.keyPos, f.q.Atoms[ai].Vars.IndexOf(v))
				}
			}
			fr.occs = append(fr.occs, o)
		}
		f.relIdx[name] = len(f.relList) + 1
		f.relList = append(f.relList, fr)
	}

	for s := 0; s < f.k; s++ {
		e, err := core.New(f.q, opts.Engine)
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, e)
	}
	f.sub = make([][]core.BatchOp, f.k)
	f.keyScratch = make(tuple.Tuple, len(keyVars))
	return f, nil
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
		better := false
		switch {
		case keyConcat && !concat:
			better = true
		case keyConcat == concat && len(comp.Atoms) > bestAtoms:
			better = true
		}
		if better {
			bestAtoms, bestIdxs, keyVars, concat = len(comp.Atoms), idxs, key, keyConcat
		}
	}
	for _, i := range bestIdxs {
		shardAtom[i] = true
	}
	return shardAtom, keyVars, concat
}

// shardRange is the one routing decision, shared by Load and the commit
// scatter: occurrence o of a row goes to the shards [lo, hi) — the one shard
// its key columns hash to (copied into the pooled scratch first) for a
// shard-component occurrence, every shard for a broadcast one.
func (f *Fed) shardRange(o *fedOcc, row tuple.Tuple) (lo, hi int) {
	if f.k == 1 || o.keyPos == nil {
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

// Shard returns shard s's engine, for inspection and tests.
func (f *Fed) Shard(s int) *core.Engine { return f.shards[s] }

// ShardVars returns the shard-key variables (a copy) and whether the
// gather concatenates per-shard enumerations (all key variables free) or
// aggregates multiplicities per distinct tuple.
func (f *Fed) ShardVars() (vars tuple.Schema, concat bool) {
	return f.shardVars.Clone(), f.concat
}

// Explain describes the federation's routing — shard count, shard key, and
// gather mode — followed by shard 0's plan (core's Engine.Explain), which
// every shard shares: all run the same occurrence-rewritten query.
func (f *Fed) Explain() string {
	gather := "aggregating"
	if f.concat {
		gather = "concatenating"
	}
	return fmt.Sprintf("federation: %d shard(s), shard key %v, %s gather\nshard 0:\n%s",
		f.k, f.shardVars, gather, f.shards[0].Explain())
}

// Load routes the row {t → m} of relation rel to the shards ahead of
// Preprocess: per occurrence, to the shard range a committed op on the same
// row would reach. The arity is checked before the first shard is written,
// so a rejected row is on no shard; everything else about the row is
// validated by the shard engines' own Load.
func (f *Fed) Load(rel string, t tuple.Tuple, m int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.loadLocked(rel, t, m)
}

func (f *Fed) loadLocked(rel string, t tuple.Tuple, m int64) error {
	if f.built {
		return fmt.Errorf("federation: Load after Preprocess; use Update or CommitBatch")
	}
	id := f.relIdx[rel]
	if id == 0 {
		return fmt.Errorf("federation: %w: %q (query %s)", core.ErrUnknownRelation, rel, f.orig)
	}
	fr := &f.relList[id-1]
	if len(t) != fr.arity {
		return &relation.ArityError{Relation: fr.name, Tuple: t.Clone(), Schema: fr.schema}
	}
	for oi := range fr.occs {
		o := &fr.occs[oi]
		lo, hi := f.shardRange(o, t)
		for _, e := range f.shards[lo:hi] {
			if err := e.Load(o.name, t, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// Preprocess loads db, if any, on top of what Load routed to the shards and
// runs the core preprocessing stage on all shards in parallel. db maps
// original relation names to relations; missing relations start empty.
func (f *Fed) Preprocess(db naive.Database) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.built {
		return fmt.Errorf("federation: already preprocessed")
	}
	for name, src := range db {
		for id := src.First(); id != relation.End; id = src.Next(id) {
			t, m := src.At(id)
			if err := f.loadLocked(name, t, m); err != nil {
				return err
			}
		}
	}
	errs := make([]error, f.k)
	var wg sync.WaitGroup
	for s := range f.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = f.shards[s].Preprocess(nil)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
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
// relations — as one atomic federated commit. The ops are validated and
// scattered once (an unknown relation or an arity mismatch is reported
// before any shard is involved, engine-identical all-or-nothing), each
// shard's sub-batch is prepared, and only when every shard accepted are
// all of them applied, in parallel. On any error — including a
// MultiplicityError detected by the shard owning the tuple, reported
// wrapped in a ShardError — every shard's state and epoch are exactly as
// before the call. On success the federation epoch advances by one; a
// batch with no nonzero-mult op commits nothing, as in core.
//
// Every op is resolved by its Rel name; its RelID is ignored and left as
// it was. The rows are referenced, not copied, until CommitBatch returns.
func (f *Fed) CommitBatch(ops []core.BatchOp) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.commitLocked(ops)
}

func (f *Fed) commitLocked(ops []core.BatchOp) error {
	if !f.built {
		return fmt.Errorf("federation: commit: %w (run Preprocess first)", core.ErrNotBuilt)
	}
	if err := f.scatterLocked(ops); err != nil {
		f.clearSubsLocked()
		return err
	}
	// Phase 1: prepare every shard with a non-empty sub-batch, in shard
	// order. Each successful prepare leaves that shard's writer lock held;
	// a failure aborts the already-prepared shards untouched.
	f.prepared = f.prepared[:0]
	for s := 0; s < f.k; s++ {
		if len(f.sub[s]) == 0 {
			continue
		}
		if err := f.shards[s].PrepareCommit(f.sub[s]); err != nil {
			for _, p := range f.prepared {
				f.shards[p].AbortPrepared()
			}
			f.clearSubsLocked()
			return &ShardError{Shard: s, Err: err}
		}
		f.prepared = append(f.prepared, s)
	}
	// Phase 2: apply everywhere. A single prepared shard applies inline
	// (the common K=1 path pays no goroutine handoff); several apply in
	// parallel on the persistent per-shard runners.
	switch len(f.prepared) {
	case 0:
		// A batch with no nonzero-mult op validates but commits nothing.
		f.clearSubsLocked()
		return nil
	case 1:
		f.shards[f.prepared[0]].ApplyPrepared()
	default:
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

// scatterLocked validates each op (relation known, arity matches — the
// shard key is unreadable otherwise) and appends it to the sub-batch of
// every shard it affects: per occurrence, the key-hash shard for
// shard-component occurrences, every shard for broadcast occurrences. Ops
// are resolved by name, through a one-entry cache in front of the map, and
// reach the shards under their occurrence names, which each shard resolves
// in its own validation. The sub-batches are pooled; rows are referenced,
// not copied. Ops of one (occurrence, tuple) always land on one shard in
// their original order, so per-shard validation of running multiplicities
// agrees with a single engine's.
func (f *Fed) scatterLocked(ops []core.BatchOp) error {
	var fr *fedRel
	for i := range ops {
		op := &ops[i]
		if fr == nil || op.Rel != fr.name {
			id := f.relIdx[op.Rel]
			if id == 0 {
				return fmt.Errorf("federation: %w: %q (query %s)", core.ErrUnknownRelation, op.Rel, f.orig)
			}
			fr = &f.relList[id-1]
		}
		if len(op.Row) != fr.arity {
			return &relation.ArityError{Relation: fr.name, Tuple: op.Row.Clone(), Schema: fr.schema}
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

// applyRunner applies prepared commits on one shard. The shard's writer
// lock was acquired by PrepareCommit on the committing goroutine and is
// released here by ApplyPrepared — handing a held sync.Mutex across
// goroutines is the intended two-phase usage.
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
// (every shard holds the same copy). Like Epoch it takes the federation
// lock, so it observes a committed state from any goroutine.
func (f *Fed) N() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for i := range f.relList {
		o := &f.relList[i].occs[0]
		if o.keyPos == nil || f.k == 1 {
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
		out.DeltasApplied += s.DeltasApplied
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

// Snapshot is an immutable view of one committed federation state: the
// shard snapshots of one federation epoch, gathered on enumeration. Like a
// core snapshot it enumerates concurrently with commits on the federation
// and with other snapshots, but is itself single-reader. Close it when
// done so the shard writers can stop preserving its generations. A
// Snapshot must not be copied: a copy would close its shards twice.
type Snapshot struct {
	_      noCopy
	f      *Fed
	epoch  uint64
	shards *shardSnaps // nil once closed
	gather *gather     // kept for the next aggregate pass
}

// noCopy makes go vet's copylocks check report a copied Snapshot.
type noCopy struct{}

// Lock and Unlock do nothing: copylocks looks for them.
func (*noCopy) Lock() {}

// Unlock does nothing; see Lock.
func (*noCopy) Unlock() {}

// shardSnaps is a snapshot's one core snapshot per shard. A closed snapshot
// leaves them in the federation's spare slot (Fed.spareSnaps) unless one
// already waits there, and the next capture takes them, so a capture into a
// Snapshot the caller keeps on its stack allocates nothing. The one slot is
// not measured — no bench/ workload reads through a sharded engine — and
// serves a reader that closes each snapshot before it takes the next.
type shardSnaps struct {
	s []core.Snapshot
}

// gather is an aggregate pass's state: the distinct rows, numbered in
// first-seen order, and their summed mults.
type gather struct {
	rows  relation.Keys
	mults []int64
}

// SnapshotInto captures a read-only view of the current committed
// federation state into s, which must not hold an open snapshot. It may be
// called from any goroutine; if a commit is in flight it blocks until the
// commit finishes, then captures every shard at the same federation epoch
// (the lock excludes commits, so no shard can be ahead). Shard captures
// reuse core's generations (see core.Engine.SnapshotInto); no tuples are
// copied.
func (f *Fed) SnapshotInto(s *Snapshot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.built {
		// Matches core.Engine.SnapshotInto: the panicking entry point of
		// the read path; the public façade converts this to an error.
		panic(core.ErrNotBuilt)
	}
	sh := f.spareSnaps.Swap(nil)
	if sh == nil {
		sh = &shardSnaps{make([]core.Snapshot, f.k)}
	}
	for i, e := range f.shards {
		e.SnapshotInto(&sh.s[i])
	}
	*s = Snapshot{f: f, epoch: f.epoch, shards: sh}
}

// Epoch identifies the committed federation state the snapshot observes.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Enumerate calls yield for every distinct result tuple of the snapshot's
// state with its multiplicity, stopping early if yield returns false.
// With an all-free shard key the shards' enumerations concatenate (each
// distinct tuple lives on exactly one shard), preserving the per-shard
// delay; otherwise the shard results are aggregated first — multiplicities
// summed per distinct tuple — and then yielded.
func (s *Snapshot) Enumerate(yield func(t tuple.Tuple, m int64) bool) {
	sh := s.shards
	if sh == nil {
		panic("federation: Enumerate on a closed Snapshot")
	}
	if s.f.concat {
		for i := range sh.s {
			stopped := false
			sh.s[i].Enumerate(func(t tuple.Tuple, m int64) bool {
				if !yield(t, m) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				return
			}
		}
		return
	}
	g := s.gather
	if g == nil {
		g = new(gather)
	}
	s.gather = nil // taken: a nested pass builds its own
	defer func() { s.gather = g }()
	g.rows.Reset(len(s.f.orig.Free))
	g.mults = g.mults[:0]
	for i := range sh.s {
		sh.s[i].Enumerate(func(t tuple.Tuple, m int64) bool {
			if gi, added := g.rows.Add(t); !added {
				g.mults[gi] += m
			} else {
				g.mults = append(g.mults, m)
			}
			return true
		})
	}
	for i, m := range g.mults {
		if !yield(g.rows.Key(i), m) {
			return
		}
	}
}

// Close releases every shard snapshot and leaves them in the federation's
// spare slot. It is idempotent; the snapshot must not be used afterwards.
func (s *Snapshot) Close() {
	sh := s.shards
	if sh == nil {
		return
	}
	s.shards = nil
	for i := range sh.s {
		sh.s[i].Close()
	}
	s.f.spareSnaps.CompareAndSwap(nil, sh)
}
