package ivmeps

import (
	"fmt"

	"ivmeps/internal/tuple"
	"ivmeps/internal/wal"
)

// CheckInvariants exposes the core engine's structural invariant check to
// the external tests; a sharded engine checks every shard.
func (e *Engine) CheckInvariants() error {
	for s := 0; s < e.f.Shards(); s++ {
		if err := e.f.Shard(s).CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// ShardOf returns the shard a row of rel routes to, for tests that take as
// many rows on every shard.
func (e *Engine) ShardOf(rel string, row []int64) int { return e.f.ShardOf(rel, tuple.Tuple(row)) }

// MajorRebalance forces one major rebalance of shard 0 at the current
// threshold base (BenchmarkMajorRebalance).
func (e *Engine) MajorRebalance() { e.f.Shard(0).Rebalance() }

// Footprint returns the bytes shard 0's relations hold (BenchmarkBuild's
// footprint-B).
func (e *Engine) Footprint() int {
	bytes, _ := e.f.Shard(0).Footprint()
	return bytes
}

// SetDurabilityFS injects a file-operation implementation into a
// Durability configuration, for fault-injection tests
// (internal/wal/faultfs). Test-only: the field is unexported so real
// deployments always run on the real filesystem.
func SetDurabilityFS(d *Durability, fs wal.VFS) { d.fs = fs }
