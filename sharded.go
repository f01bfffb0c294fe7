package ivmeps

import (
	"fmt"

	"ivmeps/internal/federation"
	"ivmeps/internal/wal"
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
// section, and Explain for the shard key and gather mode it chose.
//
// With Shards ≤ 1, NewSharded is New.
func NewSharded(q *Query, opts ShardedOptions) (*Engine, error) {
	durable := opts.Durability.enabled()
	if durable && opts.Shards > 1 {
		// The commit hook already logs a K-shard commit's whole op list
		// once (Fed.commitLocked); what is missing is a checkpoint across
		// shards (Fed.BaseState is one-shard only) and an Open that
		// rebuilds K shards. Refuse rather than pretend.
		return nil, fmt.Errorf("ivmeps: Durability is not supported on sharded engines")
	}
	f, err := federation.New(q.q, federation.Options{Shards: opts.Shards, Engine: opts.core()})
	if err != nil {
		return nil, err
	}
	e := &Engine{q: q, opts: opts.Options, f: f}
	if durable {
		// Fail on an already-populated log directory now, not at Build:
		// recovering an existing log is Open's job, and silently appending
		// to one here could corrupt it.
		if e.wal, err = wal.Create(opts.Durability.walOptions()); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Shards returns the shard count K: 1 on an engine from New.
func (e *Engine) Shards() int { return e.f.Shards() }
