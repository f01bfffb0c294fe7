package ivmeps

import (
	"fmt"

	"ivmeps/internal/wal"
)

// CheckInvariants exposes the core engine's structural invariant check to
// the external tests; a sharded engine checks every shard.
func (e *Engine) CheckInvariants() error {
	if e.fed == nil {
		return e.e.CheckInvariants()
	}
	for s := 0; s < e.fed.Shards(); s++ {
		if err := e.fed.Shard(s).CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// MajorRebalance forces one major rebalance at the current threshold base
// (BenchmarkMajorRebalance).
func (e *Engine) MajorRebalance() { e.e.Rebalance() }

// Footprint returns the bytes the engine's relations hold (BenchmarkBuild's
// footprint-B).
func (e *Engine) Footprint() int {
	bytes, _ := e.e.Footprint()
	return bytes
}

// SetDurabilityFS injects a file-operation implementation into a
// Durability configuration, for fault-injection tests
// (internal/wal/faultfs). Test-only: the field is unexported so real
// deployments always run on the real filesystem.
func SetDurabilityFS(d *Durability, fs wal.VFS) { d.fs = fs }
