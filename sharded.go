package ivmeps

import (
	"fmt"

	"ivmeps/internal/federation"
)

// ShardedOptions configures an engine from NewSharded: the per-shard engine
// options plus the shard count.
type ShardedOptions struct {
	Options
	// Shards is the number of independent shard engines K; values below 1
	// mean a single shard. Each shard owns its view trees and its
	// rebalancing state.
	Shards int
}

// NewSharded creates an engine over a hash-sharded federation of K
// independent engines. The query constraints are those of New: it must be
// hierarchical.
//
// Base relations of the query's shard component are partitioned by a hash
// of their shard-key columns (a set of variables occurring in every atom of
// the component, which a hierarchical query always has); relations of other
// components are broadcast to every shard. Commits are scattered into
// per-shard sub-batches and committed two-phase — validated on every shard,
// then applied on all of them in parallel — so the all-or-nothing guarantee
// of Commit holds across shards: on any error, every shard's state and
// epoch are exactly as before. See the package documentation's Sharding
// section, and ShardKey for how the gather works.
func NewSharded(q *Query, opts ShardedOptions) (*Engine, error) {
	if opts.Durability.enabled() {
		// Durable sharded engines need a per-shard log plus a federation
		// commit record to make the two-phase commit atomic across K logs;
		// the single-engine WAL would silently miss the federation's
		// PrepareCommit path. Refuse rather than pretend.
		return nil, fmt.Errorf("ivmeps: Durability is not supported on sharded engines")
	}
	f, err := federation.New(q.q, federation.Options{Shards: opts.Shards, Engine: opts.core()})
	if err != nil {
		return nil, err
	}
	return &Engine{q: q, opts: opts.Options, b: f, fed: f}, nil
}

// Shards returns the shard count K: 1 on an engine from New.
func (e *Engine) Shards() int {
	if e.fed == nil {
		return 1
	}
	return e.fed.Shards()
}

// ShardKey returns the variables whose hash routes tuples to shards, and
// whether the gather concatenates per-shard enumerations. When every
// shard-key variable is free, each distinct result tuple lives on exactly
// one shard and enumeration concatenates the shards' streams, preserving
// the per-shard delay guarantee; otherwise — including Boolean queries —
// the gather sums multiplicities per distinct tuple across shards before
// yielding. An engine from New has no shard key and nothing to gather: it
// returns (nil, true).
func (e *Engine) ShardKey() (vars []string, concat bool) {
	if e.fed == nil {
		return nil, true
	}
	sv, concat := e.fed.ShardVars()
	return sv.Names(), concat
}
