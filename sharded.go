package ivmeps

import (
	"fmt"

	"ivmeps/internal/federation"
)

// ShardedOptions configures a Sharded engine: the per-shard engine options
// plus the shard count.
type ShardedOptions struct {
	Options
	// Shards is the number of independent shard engines K; values below 1
	// mean a single shard. Each shard owns its view trees and its
	// rebalancing state.
	Shards int
}

// Sharded is a hash-sharded federation of K independent engines over one
// hierarchical query, with the same lifecycle and mutation API as Engine —
// Load, Build, then Insert/Delete/Apply and Batch/Commit, with snapshots
// and enumeration gathering across the shards — because it is the same
// front end (frontend.go) over a federation instead of one engine.
//
// Base relations of the query's shard component are partitioned by a hash
// of their shard-key columns (a set of variables occurring in every atom of
// the component, which a hierarchical query always has); relations of other
// components are broadcast to every shard. Commits are scattered into
// per-shard sub-batches and committed two-phase — validated on every shard,
// then applied on all of them in parallel — so the all-or-nothing guarantee
// of Engine.Commit holds across shards: on any error, every shard's state
// and epoch are exactly as before. See the package documentation's
// Sharding section and ShardKey for how the gather works.
type Sharded struct {
	frontend[*federation.Snapshot]
	f *federation.Fed
}

// NewSharded creates a sharded engine. The query constraints are those of
// New: it must be hierarchical.
func NewSharded(q *Query, opts ShardedOptions) (*Sharded, error) {
	if opts.Durability.enabled() {
		// Durable sharded engines need a per-shard log plus a federation
		// commit record to make the two-phase commit atomic across K logs;
		// the single-engine WAL would silently miss the federation's
		// PrepareCommit path. Refuse rather than pretend.
		return nil, fmt.Errorf("ivmeps: Durability is not supported on Sharded engines")
	}
	f, err := federation.New(q.q, federation.Options{Shards: opts.Shards, Engine: opts.core()})
	if err != nil {
		return nil, err
	}
	return &Sharded{frontend: frontend[*federation.Snapshot]{q: q, b: f}, f: f}, nil
}

// Shards returns the shard count K.
func (s *Sharded) Shards() int { return s.f.Shards() }

// ShardKey returns the variables whose hash routes tuples to shards, and
// whether the gather concatenates per-shard enumerations. When every
// shard-key variable is free, each distinct result tuple lives on exactly
// one shard and enumeration concatenates the shards' streams, preserving
// the per-shard delay guarantee; otherwise — including Boolean queries —
// the gather sums multiplicities per distinct tuple across shards before
// yielding.
func (s *Sharded) ShardKey() (vars []string, concat bool) {
	sv, c := s.f.ShardVars()
	vars = make([]string, len(sv))
	for i, v := range sv {
		vars[i] = string(v)
	}
	return vars, c
}

// Close releases the federation's per-shard apply goroutines. It is
// optional — a garbage-collected engine releases them automatically — but
// calling it promptly bounds goroutine count when engines are created in a
// loop. The engine remains usable after Close.
func (s *Sharded) Close() { s.f.Close() }

// Snapshot captures the current committed federation state for concurrent
// reading: every shard is captured at the same federation epoch, and the
// returned snapshot enumerates that exact state no matter how the engine
// is updated afterwards, without blocking the writers. Like an Engine
// snapshot it is single-reader; Close it when done.
func (s *Sharded) Snapshot() (*ShardedSnapshot, error) {
	r, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	return &ShardedSnapshot{r}, nil
}

// ShardedSnapshot is an immutable view of one committed state of a Sharded
// engine — all shards at one federation epoch — enumerable concurrently
// with commits to the engine it came from, gathering across the shards
// (see Sharded.ShardKey for the gather mode). Its methods are the shared
// snapshot reader's (frontend.go), promoted; Close releases the snapshot
// on every shard. See Sharded.Snapshot.
type ShardedSnapshot struct {
	snapshotReader[*federation.Snapshot]
}
