package ivmeps

import (
	"fmt"
	"iter"
	"slices"

	"ivmeps/internal/core"
	"ivmeps/internal/federation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/wal"
)

// Engine maintains a hierarchical query under single-tuple updates and
// enumerates its distinct result tuples with multiplicities. It runs over
// a federation of engines: one from New and Open, K hash-sharded ones from
// NewSharded, with the same lifecycle, mutation, and read API (see the
// package documentation's Sharding section for what K > 1 shards do not
// support).
type Engine struct {
	q     *Query
	opts  Options
	f     *federation.Fed
	built bool

	// Durability state (durability.go): nil unless Options.Durability was
	// configured. walOps is the pooled op buffer of the commit hook.
	wal    *wal.Log
	walOps []wal.Op
}

// New creates an engine. The query must be hierarchical (use Classify to
// check); non-hierarchical queries are rejected with an error, matching the
// scope of the paper's algorithms.
func New(q *Query, opts Options) (*Engine, error) {
	return NewSharded(q, ShardedOptions{Options: opts, Shards: 1})
}

// Load bulk-inserts rows (with multiplicity 1) into a relation before
// Build. Duplicate rows accumulate multiplicity. Rows are validated here and
// appended to the relation's storage as they come; Build places them all at
// once, so a loaded row is visible from Build on. Rows of one length load as
// one block, validated once, for which the relation's storage makes room at
// once. A call of many rows is not atomic: rows of different lengths load one
// by one, and when a row is rejected the rows before it stay loaded.
func (e *Engine) Load(rel string, rows ...[]int64) error {
	if len(rows) == 1 {
		return e.LoadWeighted(rel, rows[0], 1)
	}
	if len(rows) == 0 || slices.ContainsFunc(rows, func(r []int64) bool { return len(r) != len(rows[0]) }) {
		for _, r := range rows {
			if err := e.LoadWeighted(rel, r, 1); err != nil {
				return err
			}
		}
		return nil
	}
	if e.built {
		return errLoadAfterBuild
	}
	vals, mults := make([]int64, 0, len(rows[0])*len(rows)), make([]int64, len(rows))
	for i, r := range rows {
		vals = append(vals, r...)
		mults[i] = 1
	}
	return e.f.LoadRows(rel, vals, mults)
}

// errLoadAfterBuild is every load's refusal once Build has run.
var errLoadAfterBuild = fmt.Errorf("ivmeps: Load after Build; use Insert/Delete/Apply or a Batch")

// LoadWeighted bulk-inserts one row with a positive multiplicity before
// Build, which places it as it places Load's rows.
func (e *Engine) LoadWeighted(rel string, row []int64, mult int64) error {
	if e.built {
		return errLoadAfterBuild
	}
	return e.f.LoadRows(rel, row, []int64{mult})
}

// Build runs the preprocessing stage over the loaded data — on a sharded
// engine, whose shards each hold the rows Load routed to them, on all of
// them in parallel. The base relations' placement and a large join's fill
// run on helper goroutines that follow GOMAXPROCS — a K-th of it for each
// of K shards — and return before Build does. It must be called exactly
// once, before any Insert/Delete/Apply/All. On a durable engine it also
// writes the initial checkpoint, on a goroutine of its own, from the
// placed base relations while it indexes them and materializes the views,
// and returns once the checkpoint is durable; if writing it fails, the
// engine serves reads of the built state but refuses every mutation with
// Build's error, since nothing it committed could be recovered.
func (e *Engine) Build() error {
	if e.built {
		return fmt.Errorf("ivmeps: Build called twice")
	}
	// Durable engines seed the log directory with a checkpoint of the built
	// state (epoch 1), so Open always finds a base to replay from; only then
	// do commits start logging.
	var ckErr error
	var alongside func(bases []core.Base)
	if e.wal != nil {
		alongside = func(bases []core.Base) {
			ckErr = e.wal.Checkpoint(1, e.q.String(), checkpointRels(bases))
		}
	}
	if err := e.f.Preprocess(alongside); err != nil {
		return err
	}
	e.built = true
	if e.wal != nil {
		if ckErr != nil {
			err := fmt.Errorf("ivmeps: Build: writing the initial checkpoint: %w", ckErr)
			e.f.Degrade(err)
			return err
		}
		e.f.SetHook(e.walHook)
	}
	return nil
}

// Close releases what the engine holds beyond its memory: a sharded
// engine's per-shard apply goroutines, and a durable engine's write-ahead
// log, which it flushes and closes, pushing any commits buffered under
// SyncOff to the OS, and whose flush error it returns. The engine's
// in-memory state remains usable after Close — a sharded engine restarts
// its apply goroutines on its next multi-shard commit — but a durable
// engine logs no further commits: Close is for shutdown.
//
// Close is idempotent — a second Close returns nil — and wedge-safe: on an
// engine whose log wedged (LogWedgedError), Close writes nothing to the log
// files (no flush, no fsync; the wedge means their state is unknowable) and
// returns nil, the wedge having already been reported to the mutation that
// latched it.
func (e *Engine) Close() error {
	e.f.Close()
	if e.wal == nil {
		return nil
	}
	e.f.SetHook(nil)
	err := e.wal.Close()
	e.wal = nil
	return err
}

// notBuilt is the ErrNotBuilt error of the entry point op, or nil once
// Build has run.
func (e *Engine) notBuilt(op string) error {
	if e.built {
		return nil
	}
	return fmt.Errorf("ivmeps: %s: %w (call Build first)", op, ErrNotBuilt)
}

// errStaticEngine is every write's refusal on an engine built with
// Options.Static, the same at every shard count and for every op.
var errStaticEngine = fmt.Errorf("ivmeps: %w: Options.Static rejects every update after Build", ErrStatic)

// notWritable is notBuilt for the write entry point op, which an engine
// built with Options.Static also refuses.
func (e *Engine) notWritable(op string) error {
	if e.built && e.opts.Static {
		return errStaticEngine
	}
	return e.notBuilt(op)
}

// Insert applies the single-tuple insert {row → 1}.
func (e *Engine) Insert(rel string, row []int64) error { return e.Apply(rel, row, 1) }

// Delete applies the single-tuple delete {row → −1}. Deleting more than the
// stored multiplicity is rejected.
func (e *Engine) Delete(rel string, row []int64) error { return e.Apply(rel, row, -1) }

// Apply applies the single-tuple update {row → mult} (positive to insert,
// negative to delete) as a one-op commit. The amortized cost is
// O(N^(δε)); on a sharded engine only the shards owning the affected
// occurrences update.
func (e *Engine) Apply(rel string, row []int64, mult int64) error {
	if err := e.notWritable("Apply"); err != nil {
		return err
	}
	return e.f.Update(rel, tuple.Tuple(row), mult)
}

// NewBatch returns an empty update batch: queue updates across any of the
// query's relations, then Commit them atomically. The batch holds only
// relation names and rows, so it may be built before or after Build (but
// only committed after) and committed to any engine.
func (e *Engine) NewBatch() *Batch { return &Batch{} }

// Commit applies the batch as one atomic maintenance commit: every queued
// update is validated up front — in order, counting the effect of earlier
// ops of the batch — and on any error (ErrUnknownRelation, ArityError,
// MultiplicityError) the engine is left completely unchanged; no partial
// prefix is ever applied, across relations as within one. On success the
// batch commits as a single maintenance pass: per touched relation the
// updates aggregate into one delta per view-tree leaf, every view tree is
// walked once per (batch, relation) on the calling goroutine, and the
// whole commit publishes one snapshot epoch — a concurrent Snapshot
// observes all of the batch or none of it.
//
// On a sharded engine the contract holds across shards: the batch is
// scattered into per-shard sub-batches, each shard validates its own, and
// only when every shard accepted are all of them applied, in parallel. A
// shard-detected failure arrives wrapped in a ShardError, with every
// shard's state and epoch exactly as before the call; no shard ever
// applies a batch another shard rejected.
//
// The observable result — the enumerated query output, N, and the
// maintenance invariants — is identical to applying the same updates in
// order with Apply, but the amortized cost per row is lower: the rebalancing
// checks run once per distinct partition key instead of once per row. Use
// a batch for high-throughput ingestion. Commit does not consume the batch;
// Reset it before building the next one.
func (e *Engine) Commit(b *Batch) error {
	if err := e.notWritable("Commit"); err != nil {
		return err
	}
	if b == nil {
		return nil // like an empty batch: nothing to commit
	}
	return e.f.CommitBatch(b.ops)
}

// snapshot captures the current committed state into s, or reports
// ErrNotBuilt.
func (e *Engine) snapshot(s *Snapshot) error {
	if err := e.notBuilt("Snapshot"); err != nil {
		return err
	}
	e.f.SnapshotInto(&s.f)
	return nil
}

// mustSnapshot backs the implicit-snapshot reads, All and Count: it panics
// with ErrNotBuilt where Snapshot would return it. Their Snapshot lives on
// the reader's stack, so an implicit read allocates nothing.
func (e *Engine) mustSnapshot(s *Snapshot) {
	if e.snapshot(s) != nil {
		panic(ErrNotBuilt)
	}
}

// Snapshot captures the current committed state for concurrent reading:
// the returned Snapshot enumerates that exact state no matter how the
// engine is updated afterwards, without blocking the writer (see the
// package documentation) — on a sharded engine, every shard at one
// federation epoch. Snapshot may be called from any goroutine; if a batch
// is in flight it blocks until the batch commits. The Snapshot itself is
// not safe for concurrent use — take one per reader goroutine (they share
// storage). Close it when done.
func (e *Engine) Snapshot() (*Snapshot, error) {
	s := new(Snapshot)
	if err := e.snapshot(s); err != nil {
		return nil, err
	}
	return s, nil
}

// All returns an iterator over the current committed result, for use with
// range: every distinct result tuple (over the query's free variables, in
// head order) with its multiplicity, with O(N^(1−ε)) delay; a sharded
// engine gathers across its shards (see Explain). The yielded row slice is
// reused between iterations — copy it to retain. Break to stop early.
//
// Each ranging takes an implicit Snapshot, closed when the loop ends, so one
// loop observes one committed state and may run from any goroutine,
// concurrently with Commit/Apply and with other readers. To make
// several reads observe the same state, take an explicit Snapshot instead.
//
// Ranging over All before Build panics with ErrNotBuilt (the package's one
// panic on misuse; see the package documentation).
func (e *Engine) All() iter.Seq2[[]int64, int64] {
	return func(yield func([]int64, int64) bool) {
		var s Snapshot
		e.mustSnapshot(&s)
		defer s.Close()
		s.enumerate(yield)
	}
}

// Count returns the number of distinct result tuples (by enumeration of an
// implicit snapshot). It panics with ErrNotBuilt before Build.
func (e *Engine) Count() int {
	var s Snapshot
	e.mustSnapshot(&s)
	defer s.Close()
	return s.Count()
}

// Epoch returns the committed epoch: the number of committed write
// operations (Build counts as the first; 0 before it), which is the Epoch
// of a Snapshot taken now. It reads the engine's counter, so unlike
// Snapshot it pins no state; like Snapshot it may be called from any
// goroutine and waits for a commit in flight.
func (e *Engine) Epoch() uint64 { return e.f.Epoch() }

// N returns the current database size: the total number of distinct tuples
// across the query's relations, counted once regardless of sharding or
// broadcast.
func (e *Engine) N() int { return e.f.N() }

// Stats returns activity counters. A sharded engine sums its shards':
// broadcast relations contribute work on every shard, so its counters can
// exceed a single engine's for the same logical workload — they measure
// work done, not logical operations.
func (e *Engine) Stats() Stats { return e.f.Stats() }

// Epsilon returns the engine's trade-off parameter.
func (e *Engine) Epsilon() float64 { return e.opts.Epsilon }

// Explain returns a human-readable description of the engine's strategy:
// the query's classification, the cost guarantees at this ε, and the view
// trees, heavy/light indicators, and relation partitions it maintains. A
// sharded engine prefixes its shard count, shard key, and gather mode, and
// describes shard 0, whose plan every shard shares.
func (e *Engine) Explain() string { return e.f.Explain() }

// Snapshot is an immutable view of one committed engine state — on a
// sharded engine, every shard at one federation epoch, gathered on
// enumeration — readable concurrently with updates to the engine it came
// from. See Engine.Snapshot. Use it through the *Snapshot that
// Engine.Snapshot returns; a Snapshot must not be copied (go vet reports a
// copy), since closing a copy too would release its state twice.
type Snapshot struct {
	f federation.Snapshot
}

// Epoch identifies the committed state the snapshot observes: the number
// of committed write operations (Build counts as the first) at capture
// time. Two snapshots with equal epochs observe identical states.
func (s *Snapshot) Epoch() uint64 { return s.f.Epoch() }

// All returns an iterator over the snapshot's state, for use with range:
// every distinct result tuple with its multiplicity, in head order, with
// the same delay guarantee as the engine's All. The yielded row slice is
// reused between iterations; copy it to retain. The iterator may be ranged
// over several times; every pass enumerates the same committed state.
func (s *Snapshot) All() iter.Seq2[[]int64, int64] {
	return s.enumerate
}

// enumerate yields every distinct result tuple of the snapshot's state with
// its multiplicity, stopping early if yield returns false.
func (s *Snapshot) enumerate(yield func([]int64, int64) bool) {
	s.f.Enumerate(func(t tuple.Tuple, m int64) bool { return yield(t, m) })
}

// collect copies every pair of seq into fresh rows — sub-slices of one
// backing array, nil for no rows — and mults.
func collect(seq iter.Seq2[[]int64, int64]) (rows [][]int64, mults []int64) {
	var vals []int64
	for row, m := range seq {
		vals = append(vals, row...)
		mults = append(mults, m)
	}
	if len(mults) == 0 {
		return nil, nil
	}
	if vals == nil {
		vals = []int64{} // rows of no columns are empty, not nil
	}
	arity := len(vals) / len(mults)
	rows = make([][]int64, len(mults))
	for i := range rows {
		rows[i] = vals[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return rows, mults
}

// Count returns the number of distinct result tuples in the snapshot's
// state (by enumeration).
func (s *Snapshot) Count() int {
	n := 0
	s.enumerate(func([]int64, int64) bool { n++; return true })
	return n
}

// Close releases the snapshot, letting the writer stop preserving its
// generation — on a sharded engine, on every shard. It is idempotent; the
// snapshot must not be used afterwards.
func (s *Snapshot) Close() { s.f.Close() }
