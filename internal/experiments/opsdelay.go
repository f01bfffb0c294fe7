package experiments

import (
	"slices"

	"ivmeps/internal/baseline"
)

// delayOpsP99 enumerates up to limit tuples and returns the 99th percentile
// of the engine operations (cursor advances + lookups) spent per tuple — a
// machine-independent proxy for the paper's delay metric that is immune to
// timer noise at sub-µs scales.
func delayOpsP99(sys *baseline.IVMEps, limit int) int64 {
	e := sys.Engine()
	it := e.Result()
	defer it.Close()
	var gaps []int64
	last := e.Work()
	for limit <= 0 || len(gaps) < limit {
		if _, _, ok := it.Next(); !ok {
			break
		}
		now := e.Work()
		gaps = append(gaps, now-last)
		last = now
	}
	if len(gaps) == 0 {
		return 0
	}
	slices.Sort(gaps)
	return gaps[len(gaps)*99/100]
}
