package ivmeps

import (
	"fmt"
	"iter"

	"ivmeps/internal/core"
	"ivmeps/internal/naive"
	"ivmeps/internal/tuple"
)

// The front end shared by Engine and Sharded. Both are the same lifecycle
// (Load → Build → mutate and read) over a different backend — one
// core.Engine, or a federation of them — so the lifecycle, the mutation
// entry points, and the snapshot readers live here once, in frontend and
// snapshotReader, and the two public types embed them. What stays on the
// public types is what only one of them has: durability and watching on
// Engine, shard routing on Sharded.

// snapSource is a backend's snapshot: one committed state, enumerable
// concurrently with commits to the backend it came from.
type snapSource interface {
	Epoch() uint64
	Enumerate(yield func(t tuple.Tuple, m int64) bool)
	Close()
}

// backend is what the front end needs of an engine. *core.Engine and
// *federation.Fed both satisfy it, each with its own snapshot type S.
type backend[S snapSource] interface {
	Load(rel string, t tuple.Tuple, m int64) error
	Preprocess(db naive.Database) error
	Update(rel string, t tuple.Tuple, m int64) error
	CommitBatch(ops []core.BatchOp) error
	RelID(name string) int
	Snapshot() S
	Epoch() uint64
	N() int
	Stats() core.Stats
}

// frontend holds the built flag in front of a backend. Its exported methods
// are promoted into Engine and Sharded.
type frontend[S snapSource] struct {
	q     *Query
	b     backend[S]
	built bool
}

// Load bulk-inserts rows (with multiplicity 1) into a relation before
// Build. Duplicate rows accumulate multiplicity.
func (f *frontend[S]) Load(rel string, rows ...[]int64) error {
	for _, r := range rows {
		if err := f.LoadWeighted(rel, r, 1); err != nil {
			return err
		}
	}
	return nil
}

// LoadWeighted bulk-inserts one row with a positive multiplicity before
// Build.
func (f *frontend[S]) LoadWeighted(rel string, row []int64, mult int64) error {
	if f.built {
		return fmt.Errorf("ivmeps: Load after Build; use Insert/Delete/Apply or a Batch")
	}
	if mult <= 0 {
		return fmt.Errorf("ivmeps: initial multiplicity must be positive, got %d", mult)
	}
	return wrapErr(f.b.Load(rel, tuple.Tuple(row), mult))
}

// Build runs the preprocessing stage over the loaded data — on a Sharded
// engine, whose shards each hold the rows Load routed to them, on all of
// them in parallel. It must be called exactly once, before any
// Insert/Delete/Apply/Enumerate.
func (f *frontend[S]) Build() error {
	if f.built {
		return fmt.Errorf("ivmeps: Build called twice")
	}
	if err := f.b.Preprocess(nil); err != nil {
		return wrapErr(err)
	}
	f.built = true
	return nil
}

// notBuilt is the ErrNotBuilt error of the entry point op, or nil once
// Build has run.
func (f *frontend[S]) notBuilt(op string) error {
	if f.built {
		return nil
	}
	return fmt.Errorf("ivmeps: %s: %w (call Build first)", op, ErrNotBuilt)
}

// Insert applies the single-tuple insert {row → 1}.
func (f *frontend[S]) Insert(rel string, row []int64) error { return f.Apply(rel, row, 1) }

// Delete applies the single-tuple delete {row → −1}. Deleting more than the
// stored multiplicity is rejected.
func (f *frontend[S]) Delete(rel string, row []int64) error { return f.Apply(rel, row, -1) }

// Apply applies the single-tuple update {row → mult} (positive to insert,
// negative to delete) as a one-op commit. The amortized cost is
// O(N^(δε)); on a Sharded engine only the shards owning the affected
// occurrences update.
func (f *frontend[S]) Apply(rel string, row []int64, mult int64) error {
	if err := f.notBuilt("Apply"); err != nil {
		return err
	}
	return wrapErr(f.b.Update(rel, tuple.Tuple(row), mult))
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
func (f *frontend[S]) ApplyBatch(rel string, rows [][]int64, mults []int64) error {
	if err := f.notBuilt("ApplyBatch"); err != nil {
		return err
	}
	if mults != nil && len(mults) != len(rows) {
		return fmt.Errorf("ivmeps: ApplyBatch: %d rows but %d multiplicities", len(rows), len(mults))
	}
	id := f.b.RelID(rel)
	if id == 0 {
		// Resolved here, so a mis-spelled relation is reported even with
		// zero rows.
		return fmt.Errorf("ivmeps: %w: %q (query %s)", ErrUnknownRelation, rel, f.q)
	}
	ops := make([]core.BatchOp, len(rows))
	for i, r := range rows {
		m := int64(1)
		if mults != nil {
			m = mults[i]
		}
		ops[i] = core.BatchOp{Rel: rel, RelID: id, Row: r, Mult: m}
	}
	return wrapErr(f.b.CommitBatch(ops))
}

// NewBatch returns an empty update batch for this engine: queue updates
// across any of the query's relations, then Commit them atomically. The
// batch may be built before or after Build, but only committed after, and
// only to the engine that created it.
func (f *frontend[S]) NewBatch() *Batch { return &Batch{owner: f, resolve: f.b.RelID} }

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
// On a Sharded engine the contract holds across shards: the batch is
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
func (f *frontend[S]) Commit(b *Batch) error {
	if err := f.notBuilt("Commit"); err != nil {
		return err
	}
	if b == nil {
		return nil // like an empty batch: nothing to commit
	}
	if b.owner != any(f) {
		return fmt.Errorf("ivmeps: Commit: batch was created by a different engine")
	}
	return wrapErr(f.b.CommitBatch(b.ops))
}

// snapshot captures the backend's current committed state, or reports
// ErrNotBuilt; the public Snapshot methods wrap it in their own type.
func (f *frontend[S]) snapshot() (snapshotReader[S], error) {
	if err := f.notBuilt("Snapshot"); err != nil {
		return snapshotReader[S]{}, err
	}
	return snapshotReader[S]{f.b.Snapshot()}, nil
}

// mustSnapshot backs the enumeration conveniences: it panics with
// ErrNotBuilt where Snapshot would return it.
func (f *frontend[S]) mustSnapshot() snapshotReader[S] {
	s, err := f.snapshot()
	if err != nil {
		panic(ErrNotBuilt)
	}
	return s
}

// Enumerate yields every distinct result tuple (over the query's free
// variables, in head order) with its multiplicity, with O(N^(1−ε)) delay;
// a Sharded engine gathers across its shards (see Sharded.ShardKey). The
// row slice is reused between calls; copy it to retain. Return false to
// stop early.
//
// Enumerate takes an implicit Snapshot for the duration of the call, so it
// observes one committed state and is safe to call from any goroutine,
// concurrently with Commit/Apply/ApplyBatch and with other readers. To make
// several reads observe the same state, take an explicit Snapshot instead.
//
// Enumerate before Build panics with ErrNotBuilt (the package's one panic
// on misuse; see the package documentation).
func (f *frontend[S]) Enumerate(yield func(row []int64, mult int64) bool) {
	s := f.mustSnapshot()
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
func (f *frontend[S]) All() iter.Seq2[[]int64, int64] {
	return func(yield func([]int64, int64) bool) { f.Enumerate(yield) }
}

// Rows materializes the full result as (row, multiplicity) pairs; intended
// for small results and tests. Like Enumerate, it reads one committed
// state via an implicit snapshot, and panics with ErrNotBuilt before Build.
func (f *frontend[S]) Rows() (rows [][]int64, mults []int64) {
	s := f.mustSnapshot()
	defer s.Close()
	return s.Rows()
}

// Count returns the number of distinct result tuples (by enumeration of an
// implicit snapshot). It panics with ErrNotBuilt before Build.
func (f *frontend[S]) Count() int {
	s := f.mustSnapshot()
	defer s.Close()
	return s.Count()
}

// Epoch returns the committed epoch: the number of committed write
// operations (Build counts as the first; 0 before it), which is the Epoch
// of a Snapshot taken now. It reads the engine's counter, so unlike
// Snapshot it pins no state; like Snapshot it may be called from any
// goroutine and waits for a commit in flight.
func (f *frontend[S]) Epoch() uint64 { return f.b.Epoch() }

// N returns the current database size: the total number of distinct tuples
// across the query's relations, counted once regardless of sharding or
// broadcast.
func (f *frontend[S]) N() int { return f.b.N() }

// Stats returns activity counters. A Sharded engine sums its shards':
// broadcast relations contribute work on every shard, so its counters can
// exceed a single engine's for the same logical workload — they measure
// work done, not logical operations.
func (f *frontend[S]) Stats() Stats {
	s := f.b.Stats()
	return Stats{
		Updates:         s.Updates,
		MinorRebalances: s.MinorRebalances,
		MajorRebalances: s.MajorRebalances,
		ViewDeltas:      s.DeltasApplied,
		Batches:         s.Batches,
		BatchRelations:  s.BatchRelations,
	}
}

// snapshotReader is the reading surface of Snapshot and ShardedSnapshot
// over a backend snapshot; its exported methods are promoted into both.
type snapshotReader[S snapSource] struct {
	s S
}

// Epoch identifies the committed state the snapshot observes: the number
// of committed write operations (Build counts as the first) at capture
// time. Two snapshots with equal epochs observe identical states.
func (r *snapshotReader[S]) Epoch() uint64 { return r.s.Epoch() }

// Enumerate yields every distinct result tuple of the snapshot's state
// with its multiplicity, in head order, with the same delay guarantee as
// the engine's Enumerate. The row slice is reused between calls; copy it to
// retain. Return false to stop early.
func (r *snapshotReader[S]) Enumerate(yield func(row []int64, mult int64) bool) {
	r.s.Enumerate(func(t tuple.Tuple, m int64) bool { return yield(t, m) })
}

// All returns an iterator over the snapshot's state, for use with range:
// every distinct result tuple with its multiplicity, in head order, with
// the same delay guarantee as Enumerate. The yielded row slice is reused
// between iterations; copy it to retain. The iterator may be ranged over
// several times; every pass enumerates the same committed state.
func (r *snapshotReader[S]) All() iter.Seq2[[]int64, int64] {
	return func(yield func([]int64, int64) bool) { r.Enumerate(yield) }
}

// Rows materializes the snapshot's full result as (row, multiplicity)
// pairs; intended for small results and tests.
func (r *snapshotReader[S]) Rows() (rows [][]int64, mults []int64) { return collect(r.All()) }

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
func (r *snapshotReader[S]) Count() int {
	n := 0
	r.Enumerate(func([]int64, int64) bool { n++; return true })
	return n
}

// Close releases the snapshot, letting the writer stop preserving its
// generation. It is idempotent; the snapshot must not be used afterwards.
func (r *snapshotReader[S]) Close() { r.s.Close() }
