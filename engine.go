package ivmeps

import (
	"fmt"
	"iter"

	"ivmeps/internal/core"
	"ivmeps/internal/federation"
	"ivmeps/internal/naive"
	"ivmeps/internal/tuple"
	"ivmeps/internal/wal"
)

// backend is what an Engine needs of the engine behind it: one core.Engine
// (New, Open) or a federation of K of them (NewSharded). The lifecycle,
// mutation, and read methods below are written once against it; taking a
// snapshot, which returns each backend's own snapshot type, is the one
// place that branches on which backend it is.
type backend interface {
	Load(rel string, t tuple.Tuple, m int64) error
	Preprocess(db naive.Database) error
	Update(rel string, t tuple.Tuple, m int64) error
	CommitBatch(ops []core.BatchOp) error
	RelID(name string) int
	Epoch() uint64
	N() int
	Stats() core.Stats
	Explain() string
}

// snapSource is a backend's snapshot: one committed state, enumerable
// concurrently with commits to the backend it came from.
type snapSource interface {
	Epoch() uint64
	Enumerate(yield func(t tuple.Tuple, m int64) bool)
	Close()
}

// Engine maintains a hierarchical query under single-tuple updates and
// enumerates its distinct result tuples with multiplicities. New builds it
// over one engine; NewSharded over a hash-sharded federation of K engines,
// with the same lifecycle, mutation, and read API (see the package
// documentation's Sharding section for what a sharded engine does not
// support).
type Engine struct {
	q     *Query
	opts  Options
	b     backend
	e     *core.Engine    // b of an engine from New or Open, else nil
	fed   *federation.Fed // b of an engine from NewSharded, else nil
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
	c, err := core.New(q.q, opts.core())
	if err != nil {
		return nil, err
	}
	e := &Engine{q: q, opts: opts, b: c, e: c}
	if opts.Durability.enabled() {
		// Fail on an already-populated log directory now, not at Build:
		// recovering an existing log is Open's job, and silently appending
		// to one here could corrupt it.
		l, err := wal.Create(opts.Durability.walOptions())
		if err != nil {
			return nil, err
		}
		e.wal = l
	}
	return e, nil
}

// Load bulk-inserts rows (with multiplicity 1) into a relation before
// Build. Duplicate rows accumulate multiplicity.
func (e *Engine) Load(rel string, rows ...[]int64) error {
	for _, r := range rows {
		if err := e.LoadWeighted(rel, r, 1); err != nil {
			return err
		}
	}
	return nil
}

// LoadWeighted bulk-inserts one row with a positive multiplicity before
// Build.
func (e *Engine) LoadWeighted(rel string, row []int64, mult int64) error {
	if e.built {
		return fmt.Errorf("ivmeps: Load after Build; use Insert/Delete/Apply or a Batch")
	}
	if mult <= 0 {
		return fmt.Errorf("ivmeps: initial multiplicity must be positive, got %d", mult)
	}
	return wrapErr(e.b.Load(rel, tuple.Tuple(row), mult))
}

// Build runs the preprocessing stage over the loaded data — on a sharded
// engine, whose shards each hold the rows Load routed to them, on all of
// them in parallel. It must be called exactly once, before any
// Insert/Delete/Apply/Enumerate. On a durable engine it also writes the
// initial checkpoint; if that fails, the engine serves reads of the built
// state but refuses every mutation with Build's error, since nothing it
// committed could be recovered.
func (e *Engine) Build() error {
	if e.built {
		return fmt.Errorf("ivmeps: Build called twice")
	}
	if err := e.b.Preprocess(nil); err != nil {
		return wrapErr(err)
	}
	e.built = true
	if e.wal != nil {
		// Durable engines seed the log directory with a checkpoint of the
		// built state (epoch 1), so Open always finds a base to replay from;
		// only then do commits start logging.
		if err := e.Checkpoint(); err != nil {
			err = fmt.Errorf("ivmeps: Build: writing the initial checkpoint: %w", err)
			e.e.Degrade(err)
			return err
		}
		e.e.SetCommitHook(e.walHook)
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
	if e.fed != nil {
		e.fed.Close()
	}
	if e.wal == nil {
		return nil
	}
	e.e.SetCommitHook(nil)
	err := e.wal.Close()
	e.wal = nil
	return wrapErr(err)
}

// notBuilt is the ErrNotBuilt error of the entry point op, or nil once
// Build has run.
func (e *Engine) notBuilt(op string) error {
	if e.built {
		return nil
	}
	return fmt.Errorf("ivmeps: %s: %w (call Build first)", op, ErrNotBuilt)
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
	if err := e.notBuilt("Apply"); err != nil {
		return err
	}
	return wrapErr(e.b.Update(rel, tuple.Tuple(row), mult))
}

// ApplyBatch applies the updates {rows[i] → mults[i]} to one relation as a
// single batch. A nil mults applies every row with multiplicity +1; mixed
// inserts and deletes are allowed. The observable result — the enumerated
// query output, N, and the engine's maintenance invariants — is identical
// to applying the same updates in order with Apply, but the amortized cost
// per row is lower: the batch is aggregated into one delta per view-tree
// leaf, every view tree is walked once for the whole batch, and the
// rebalancing checks run once per distinct partition key instead of once
// per row. Use it for high-throughput ingestion.
//
// Error handling differs from a sequential Apply loop in one way: the
// batch is validated up front (in order, counting the effect of earlier
// rows), and on any error — an ArityError, or a MultiplicityError for a
// delete exceeding the available multiplicity — the engine is left
// completely unchanged rather than with a prefix applied.
//
// ApplyBatch is the one-relation convenience over the Batch/Commit path
// and shares its machinery; use a Batch to span several relations in one
// atomic commit.
func (e *Engine) ApplyBatch(rel string, rows [][]int64, mults []int64) error {
	if err := e.notBuilt("ApplyBatch"); err != nil {
		return err
	}
	if mults != nil && len(mults) != len(rows) {
		return fmt.Errorf("ivmeps: ApplyBatch: %d rows but %d multiplicities", len(rows), len(mults))
	}
	id := e.b.RelID(rel)
	if id == 0 {
		// Resolved here, so a mis-spelled relation is reported even with
		// zero rows.
		return fmt.Errorf("ivmeps: %w: %q (query %s)", ErrUnknownRelation, rel, e.q)
	}
	ops := make([]core.BatchOp, len(rows))
	for i, r := range rows {
		m := int64(1)
		if mults != nil {
			m = mults[i]
		}
		ops[i] = core.BatchOp{Rel: rel, RelID: id, Row: r, Mult: m}
	}
	return wrapErr(e.b.CommitBatch(ops))
}

// NewBatch returns an empty update batch for this engine: queue updates
// across any of the query's relations, then Commit them atomically. The
// batch may be built before or after Build, but only committed after, and
// only to the engine that created it.
func (e *Engine) NewBatch() *Batch { return &Batch{owner: e} }

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
// order with Apply; the amortized cost per row is what ApplyBatch provides,
// now across relations. Commit does not consume the batch; Reset it before
// building the next one.
func (e *Engine) Commit(b *Batch) error {
	if err := e.notBuilt("Commit"); err != nil {
		return err
	}
	if b == nil {
		return nil // like an empty batch: nothing to commit
	}
	if b.owner != e {
		return fmt.Errorf("ivmeps: Commit: batch was created by a different engine")
	}
	return wrapErr(e.b.CommitBatch(b.ops))
}

// snapshot captures the backend's current committed state, or reports
// ErrNotBuilt.
func (e *Engine) snapshot() (Snapshot, error) {
	if err := e.notBuilt("Snapshot"); err != nil {
		return Snapshot{}, err
	}
	if e.fed != nil {
		return Snapshot{e.fed.Snapshot()}, nil
	}
	return Snapshot{e.e.Snapshot()}, nil
}

// mustSnapshot backs the enumeration conveniences: it panics with
// ErrNotBuilt where Snapshot would return it.
func (e *Engine) mustSnapshot() Snapshot {
	s, err := e.snapshot()
	if err != nil {
		panic(ErrNotBuilt)
	}
	return s
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
	s, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// Enumerate yields every distinct result tuple (over the query's free
// variables, in head order) with its multiplicity, with O(N^(1−ε)) delay;
// a sharded engine gathers across its shards (see ShardKey). The row slice
// is reused between calls; copy it to retain. Return false to stop early.
//
// Enumerate takes an implicit Snapshot for the duration of the call, so it
// observes one committed state and is safe to call from any goroutine,
// concurrently with Commit/Apply/ApplyBatch and with other readers. To make
// several reads observe the same state, take an explicit Snapshot instead.
//
// Enumerate before Build panics with ErrNotBuilt (the package's one panic
// on misuse; see the package documentation).
func (e *Engine) Enumerate(yield func(row []int64, mult int64) bool) {
	s := e.mustSnapshot()
	defer s.Close()
	s.Enumerate(yield)
}

// All returns an iterator over the current committed result, for use with
// range: every distinct result tuple (over the query's free variables, in
// head order) with its multiplicity. Like Enumerate, each ranging takes an
// implicit Snapshot, so one loop observes one committed state and may run
// concurrently with updates; the yielded row slice is reused between
// iterations — copy it to retain.
//
// Ranging over All before Build panics with ErrNotBuilt (the package's one
// panic on misuse; see the package documentation).
func (e *Engine) All() iter.Seq2[[]int64, int64] {
	return func(yield func([]int64, int64) bool) { e.Enumerate(yield) }
}

// Rows materializes the full result as (row, multiplicity) pairs; intended
// for small results and tests. Like Enumerate, it reads one committed
// state via an implicit snapshot, and panics with ErrNotBuilt before Build.
func (e *Engine) Rows() (rows [][]int64, mults []int64) {
	s := e.mustSnapshot()
	defer s.Close()
	return s.Rows()
}

// Count returns the number of distinct result tuples (by enumeration of an
// implicit snapshot). It panics with ErrNotBuilt before Build.
func (e *Engine) Count() int {
	s := e.mustSnapshot()
	defer s.Close()
	return s.Count()
}

// Epoch returns the committed epoch: the number of committed write
// operations (Build counts as the first; 0 before it), which is the Epoch
// of a Snapshot taken now. It reads the engine's counter, so unlike
// Snapshot it pins no state; like Snapshot it may be called from any
// goroutine and waits for a commit in flight.
func (e *Engine) Epoch() uint64 { return e.b.Epoch() }

// N returns the current database size: the total number of distinct tuples
// across the query's relations, counted once regardless of sharding or
// broadcast.
func (e *Engine) N() int { return e.b.N() }

// Stats returns activity counters. A sharded engine sums its shards':
// broadcast relations contribute work on every shard, so its counters can
// exceed a single engine's for the same logical workload — they measure
// work done, not logical operations.
func (e *Engine) Stats() Stats {
	s := e.b.Stats()
	return Stats{
		Updates:         s.Updates,
		MinorRebalances: s.MinorRebalances,
		MajorRebalances: s.MajorRebalances,
		ViewDeltas:      s.DeltasApplied,
		Batches:         s.Batches,
		BatchRelations:  s.BatchRelations,
	}
}

// Epsilon returns the engine's trade-off parameter.
func (e *Engine) Epsilon() float64 { return e.opts.Epsilon }

// Explain returns a human-readable description of the engine's strategy:
// the query's classification, the cost guarantees at this ε, and the view
// trees, heavy/light indicators, and relation partitions it maintains. A
// sharded engine prefixes its shard count, shard key, and gather mode, and
// describes shard 0, whose plan every shard shares.
func (e *Engine) Explain() string { return e.b.Explain() }

// Snapshot is an immutable view of one committed engine state — on a
// sharded engine, every shard at one federation epoch, gathered on
// enumeration — readable concurrently with updates to the engine it came
// from. See Engine.Snapshot.
type Snapshot struct {
	s snapSource
}

// Epoch identifies the committed state the snapshot observes: the number
// of committed write operations (Build counts as the first) at capture
// time. Two snapshots with equal epochs observe identical states.
func (s *Snapshot) Epoch() uint64 { return s.s.Epoch() }

// Enumerate yields every distinct result tuple of the snapshot's state
// with its multiplicity, in head order, with the same delay guarantee as
// the engine's Enumerate. The row slice is reused between calls; copy it to
// retain. Return false to stop early.
func (s *Snapshot) Enumerate(yield func(row []int64, mult int64) bool) {
	s.s.Enumerate(func(t tuple.Tuple, m int64) bool { return yield(t, m) })
}

// All returns an iterator over the snapshot's state, for use with range:
// every distinct result tuple with its multiplicity, in head order, with
// the same delay guarantee as Enumerate. The yielded row slice is reused
// between iterations; copy it to retain. The iterator may be ranged over
// several times; every pass enumerates the same committed state.
func (s *Snapshot) All() iter.Seq2[[]int64, int64] {
	return func(yield func([]int64, int64) bool) { s.Enumerate(yield) }
}

// Rows materializes the snapshot's full result as (row, multiplicity)
// pairs; intended for small results and tests.
func (s *Snapshot) Rows() (rows [][]int64, mults []int64) { return collect(s.All()) }

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
	s.Enumerate(func([]int64, int64) bool { n++; return true })
	return n
}

// Close releases the snapshot, letting the writer stop preserving its
// generation — on a sharded engine, on every shard. It is idempotent; the
// snapshot must not be used afterwards.
func (s *Snapshot) Close() { s.s.Close() }
