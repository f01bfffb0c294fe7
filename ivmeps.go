// Package ivmeps is a maintained-query engine for hierarchical conjunctive
// queries with a tunable trade-off between preprocessing time, single-tuple
// update time, and enumeration delay, implementing
//
//	Kara, Nikolic, Olteanu, Zhang.
//	"Trade-offs in Static and Dynamic Evaluation of Hierarchical Queries."
//	PODS 2020 (arXiv:1907.01988).
//
// For a hierarchical query with static width w and dynamic width δ and a
// database of size N, an engine built at ε ∈ [0, 1] provides
//
//	preprocessing       O(N^(1+(w−1)ε))
//	enumeration delay   O(N^(1−ε))
//	amortized update    O(N^(δε))
//
// Free-connex queries get O(N) preprocessing and O(1) delay at every ε;
// q-hierarchical queries additionally get O(1) updates (δ = 0).
//
// Basic use (every line below compiles as shown, given `q`'s relations):
//
//	q, _ := ivmeps.ParseQuery("Q(A, C) = R(A, B), S(B, C)")
//	e, _ := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
//	_ = e.Load("R", []int64{1, 10}, []int64{2, 10})
//	_ = e.Load("S", []int64{10, 7})
//	_ = e.Build()
//	_ = e.Insert("R", []int64{3, 10})
//	for row, mult := range e.All() {
//		fmt.Println(row, mult)
//	}
//
// ParseQuery turns the query text into a Query, whose Classify method
// reports the Class the paper's taxonomy assigns it — hierarchical or not,
// free-connex or not, the widths w and δ — and with them the guarantees
// above. Engine.Stats exposes maintenance activity counters (updates,
// batches, rebalances) for operational monitoring.
//
// # Mutation
//
// After Build, every mutation is a commit: the single-tuple updates
// (Insert, Delete, Apply) are one-op commits, and the Batch builder queues
// any mix of updates across any of the query's relations for Commit to
// apply as one atomic maintenance commit —
//
//	b := e.NewBatch()
//	b.Insert("R", []int64{4, 11})
//	b.Delete("S", []int64{10, 7})
//	b.Apply("R", []int64{1, 10}, -1)
//	if err := e.Commit(b); err != nil { ...
//
// All of them run through one commit envelope inside the engine — validate,
// log (if durable), propagate, rebalance, publish one epoch — so they share
// one contract, and Stats counts each of them as one commit.
//
// Commit validates the whole batch up front and applies all of it or none
// of it: on an error the engine state, including its snapshot epoch, is
// exactly what it was. Per touched relation the updates aggregate into one
// delta per view-tree leaf, so every view tree is walked once per (batch,
// relation) instead of once per update; the observable result is identical
// to applying the same updates in order with Apply. ApplyBatch remains as
// the one-relation convenience wrapper over the same path; a commit with
// no effective update (no ops, or only zero-multiplicity ones) validates
// and publishes nothing. The update path is engineered for sustained
// traffic: the propagation routes from every relation to every affected
// view are precomputed at Build time, and steady-state Apply and Commit run
// without heap allocation.
//
// Mutation errors are programmable, not stringly: Is-match ErrNotBuilt,
// ErrUnknownRelation, and ErrStatic, and As-match the structured
// ArityError and MultiplicityError.
//
// # Parallelism
//
// A commit propagates on the caller's goroutine, and write methods (Apply,
// ApplyBatch, Commit, Insert, Delete) must not be invoked concurrently with
// each other. NewSharded is how to use several cores: its engine's shards
// commit in parallel.
//
// # Errors and the one panic
//
// Every entry point that can fail returns an error — with one deliberate
// exception. The enumeration conveniences Enumerate, Rows, Count, and All
// (on Engine; the Snapshot variants cannot be obtained before Build) have
// no error results so they compose with range loops, and calling them
// before Build is unambiguous API misuse: they panic with ErrNotBuilt
// rather than silently yielding nothing. That is the package's only panic
// on misuse; programmatic callers who prefer an error call Snapshot, which
// returns ErrNotBuilt instead.
//
// # Snapshots
//
// Readers do not block the writer. Snapshot captures the current committed
// state in O(#views) — no data is copied up front — and the returned
// Snapshot enumerates that state concurrently with Apply and ApplyBatch:
// when the writer first mutates a relation some live snapshot pins, it
// detaches the storage copy-on-write, so the snapshot keeps its view while
// ingestion proceeds. A snapshot taken while a batch is in flight blocks
// until the batch commits and then observes the post-batch state; it never
// observes a half-applied batch. Enumerate takes (and closes) an implicit
// snapshot per call, so bare Enumerate is always safe concurrently with
// updates and with other readers; hold an explicit Snapshot to make several
// reads observe one state, and Close it promptly — an open snapshot makes
// the writer copy each relation it touches once per snapshot generation.
//
// # Sharding
//
// NewSharded returns an Engine that federates K independent engines over
// the same query, for multi-core scaling. A hierarchical query's connected
// component always has variables occurring in every one of its atoms;
// hashing those shard-key values partitions the component's relations so
// that tuples on different shards never join, and the per-shard results
// sum exactly to the unsharded result. It is the same Engine — Load/Build,
// Insert/Delete/Apply, NewBatch/Commit, Snapshot — over a federation
// instead of one engine, with the same atomicity contract extended across
// shards: a commit is validated on every shard and applied on all of them
// or none of them, and a Snapshot observes every shard at one federation
// epoch. A shard-detected validation failure arrives wrapped in a
// ShardError; see ShardKey for the routing and gather details.
//
// A sharded engine has no durability (NewSharded refuses
// Options.Durability, and Checkpoint returns an error), no watch stream
// (Watch returns an error, and Views is empty), and its Explain describes
// the routing and shard 0's plan. Shards and ShardKey report its layout;
// on an engine from New they return 1 and no key.
//
// # Durability
//
// Engines are in-memory by default; setting Options.Durability.Dir gives an
// engine a write-ahead log: every committed batch — through Insert, Delete,
// Apply, ApplyBatch, or Commit — is appended to a segmented, checksummed
// commit log in that directory before it is applied, and Build writes an
// initial checkpoint, so the committed state always equals "newest
// checkpoint + logged tail". After a crash, Open rebuilds the engine from
// that directory and resumes logging into it; the recovered result rows, N,
// and snapshot epoch are exactly those of the last durable commit
// (Example_checkpointRecover shows the full cycle). Call Checkpoint to
// bound recovery time: it serializes the base relations without blocking
// commits and retires the log prefix it covers.
//
// The SyncMode in Durability.Sync picks the fsync policy — SyncOff
// (buffered, fastest), SyncBatched (every commit reaches the OS, fsync in
// groups), SyncAlways (commit = on stable storage) — trading commit latency
// against how much a crash can lose; whatever survives is always a clean
// committed prefix, never a torn or merged state. A torn final record (the
// one shape a mid-write kill leaves) is truncated silently by Open; any
// other damage — checksum mismatches, missing epochs — is refused with a
// CorruptLogError rather than guessed around. Durable engines should be
// Closed when discarded so buffered appends reach the OS; sharded engines
// do not support Durability. The cmd/ivmwal tool inspects and verifies log
// directories offline, and docs/DURABILITY.md specifies the file formats,
// the recovery rules, and the full crash-guarantee table.
//
// Durability also defines behavior when the disk itself fails. The first
// write, flush, fsync, or segment-rotation error wedges the log: the commit
// that hit it fails with a LogWedgedError and is not applied, nothing is
// ever written to the log files again (in particular a failed fsync is
// never retried — its page-cache state is unknowable), and the engine
// degrades to read-only: every further Insert/Delete/Apply/ApplyBatch/
// Commit returns the same LogWedgedError with the in-memory state
// untouched, while Snapshot, All, Rows, Count, and Enumerate keep serving
// the last committed state. Recovery is by restart: reopen the directory
// with Open, which replays exactly the commits that reached disk. See the
// failure model in docs/DURABILITY.md.
//
// # Watching
//
// Engine.Watch streams the engine's result changes as they commit. A
// Watcher starts from an anchor — a Snapshot of the committed state at
// subscription, available once via Watcher.Snapshot — and its Events
// iteration then yields one Event per subsequent commit, in epoch order
// with no gaps: each Event carries the commit's epoch and, per root view
// (named by Engine.Views, readable from any snapshot via Snapshot.ViewAll,
// which streams it, or Snapshot.ViewRows, which copies it), a ViewDelta of
// the rows whose multiplicity changed. An event's rows and mults are built
// once per commit and shared with every watcher of that commit: they are
// read-only. Folding the deltas over the anchor reproduces the engine's
// state at every delivered epoch, so a cache, an index, or a downstream
// replica can stay exactly consistent without re-reading the engine
// (Example_watch shows the loop). WatchOptions filters the stream to
// chosen views and sizes the event buffer.
//
// The committer never blocks on watchers: each Watcher owns a bounded
// buffer (WatchOptions.Buffer, default DefaultWatchBuffer), and one that
// falls further behind than its buffer holds is evicted — its stream ends,
// after every buffered event, with a WatcherLaggedError naming exactly the
// epochs it missed (match the class with errors.Is against
// ErrWatcherLagged), and it re-anchors by calling Watch again. Other
// watchers and the writer are unaffected: every watcher is itself one of
// the engine's commit sinks, handed each commit's delta under the writer
// lock with nothing in between, and while no watcher is open the
// commit path does no capture work — and no allocation — at all. The watch
// layer spawns no goroutines; events are delivered on whichever goroutine
// iterates Events, and Watcher.Close (safe from any goroutine, including
// concurrently with a blocked iteration) releases everything.
//
// ViewDelta and Stats carry JSON tags because cmd/ivmd writes them to the
// wire as they are (docs/SERVICE.md). Engine.Epoch reads the committed
// epoch — the Epoch a Snapshot taken now would report — without taking
// one.
package ivmeps

import (
	"ivmeps/internal/core"
	"ivmeps/internal/query"
	"ivmeps/internal/viewtree"
)

// Query is a parsed conjunctive query.
type Query struct {
	q *query.Query
}

// ParseQuery parses a query in the paper's notation, e.g.
// "Q(A, C) = R(A, B), S(B, C)". The head lists the free variables; a
// Boolean query has an empty head.
func ParseQuery(s string) (*Query, error) {
	q, err := query.Parse(s)
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// MustParseQuery is ParseQuery that panics on error, for query literals.
func MustParseQuery(s string) *Query {
	q, err := ParseQuery(s)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the query.
func (q *Query) String() string { return q.q.String() }

// Relations returns the distinct relation symbols of the query body.
func (q *Query) Relations() []string { return q.q.RelationNames() }

// Schema returns the variable names of a relation's atom, or nil if the
// relation does not occur in the query.
func (q *Query) Schema(rel string) []string {
	for _, a := range q.q.Atoms {
		if a.Rel == rel {
			return a.Vars.Names()
		}
	}
	return nil
}

// Class describes where a query sits in the paper's taxonomy (Figure 2) and
// its width measures.
type Class struct {
	Hierarchical  bool
	QHierarchical bool // δ0-hierarchical (Proposition 6)
	AlphaAcyclic  bool
	FreeConnex    bool
	StaticWidth   int // w: preprocessing exponent is 1+(w−1)ε; 0 if not hierarchical
	DynamicWidth  int // δ: update exponent is δε; equals the δi rank; 0 if not hierarchical
}

// Classify computes the query's class and width measures.
func (q *Query) Classify() Class {
	c := query.Classify(q.q)
	return Class{
		Hierarchical:  c.Hierarchical,
		QHierarchical: c.QHierarchical,
		AlphaAcyclic:  c.AlphaAcyclic,
		FreeConnex:    c.FreeConnex,
		StaticWidth:   c.StaticWidth,
		DynamicWidth:  c.DynamicWidth,
	}
}

// Options configures an Engine.
type Options struct {
	// Epsilon is the trade-off parameter ε ∈ [0, 1]: 0 minimizes
	// preprocessing and update time, 1 minimizes delay.
	Epsilon float64
	// Static builds a static-evaluation engine: fewer auxiliary views, but
	// Insert/Delete/Apply after Build are rejected.
	Static bool
	// Workers is ignored: a commit propagates on the caller's goroutine,
	// and an engine from NewSharded is the parallel path.
	//
	// Deprecated: no effect; kept so existing callers compile.
	Workers int
	// Durability, when its Dir is set, gives the engine a write-ahead log
	// and checkpoint files in that directory: every committed batch is
	// logged before it is applied, Checkpoint compacts the log, and Open
	// recovers the committed state after a crash. The zero value disables
	// durability entirely. See the package documentation's Durability
	// section.
	Durability Durability
}

// core translates the options an engine from New and every shard of one
// from NewSharded share.
func (o Options) core() core.Options {
	mode := viewtree.Dynamic
	if o.Static {
		mode = viewtree.Static
	}
	return core.Options{Mode: mode, Epsilon: o.Epsilon}
}

// Stats reports maintenance activity counters.
type Stats struct {
	Updates         int64 `json:"updates"`
	MinorRebalances int64 `json:"minor_rebalances"`
	MajorRebalances int64 `json:"major_rebalances"`
	ViewDeltas      int64 `json:"view_deltas"`
	// Batches counts commits — every Insert, Delete, Apply, ApplyBatch, or
	// Commit call that published an epoch, a single-tuple update being a
	// one-op commit — and BatchRelations the distinct relations with a net
	// effect (ops that did not cancel out within the commit), summed over
	// those commits: BatchRelations/Batches is the mean effective fan-out
	// of the ingest stream across the query's relations.
	Batches        int64 `json:"batches"`
	BatchRelations int64 `json:"batch_relations"`
}
