package ivmeps

import (
	"fmt"

	"ivmeps/internal/core"
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

// GapOps enumerates up to limit rows of shard 0's result on a snapshot of
// its own and returns the largest number of Work ops between consecutive
// rows, the open before the first row included (BenchmarkEnumerate's
// gap-ops): the delay of Proposition 22 as an exact count.
func (e *Engine) GapOps(limit int) int64 {
	var s core.Snapshot
	e.f.Shard(0).SnapshotInto(&s)
	defer s.Close()
	var it core.Iterator
	s.ResultInto(&it)
	defer it.Close()
	var gap, last int64
	for rows := 0; rows < limit; rows++ {
		_, _, ok := it.Next()
		gap = max(gap, s.Work()-last)
		last = s.Work()
		if !ok {
			break
		}
	}
	return gap
}

// SetDurabilityFS injects a file-operation implementation into a
// Durability configuration, for fault-injection tests
// (internal/wal/faultfs). Test-only: the field is unexported so real
// deployments always run on the real filesystem.
func SetDurabilityFS(d *Durability, fs wal.VFS) { d.fs = fs }
