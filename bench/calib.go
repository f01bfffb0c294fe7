package main

import "time"

// calibrator times a fixed kernel that has nothing to do with the program —
// 100 000 dependent loads along one random cycle through 8 MiB — to say how
// fast the machine's memory system was during a traced run. It feeds the
// per-layer metric bench.calib_ms and nothing else: no reported timing is
// corrected by it.
type calibrator struct {
	cycle []int32
	at    int32
}

const calibSteps = 100000

// newCalibrator builds the kernel's array; tiny (for -smoke) keeps it in
// cache, which times nothing useful but costs the tests nothing either.
func newCalibrator(tiny bool) *calibrator {
	if tiny {
		return &calibrator{cycle: singleCycle(1 << 10)}
	}
	return &calibrator{cycle: singleCycle(2 << 20)}
}

// singleCycle returns a uniformly random permutation of n elements with one
// cycle (Sattolo's algorithm), so a walk along it never falls into a short
// loop that fits a cache.
func singleCycle(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// sample runs the kernel once and returns its time in ms.
func (c *calibrator) sample() float64 {
	t := time.Now()
	at := c.at
	for i := 0; i < calibSteps; i++ {
		at = c.cycle[at]
	}
	c.at = at
	return float64(time.Since(t)) / 1e6
}
