package benchutil

import "fmt"

// Benchmark regression gate: compare a fresh bench2json report against a
// committed baseline (BENCH_update.json). Time is compared with a generous
// fractional tolerance, since ns/op is machine- and load-dependent;
// allocations are compared with strict equality by default — an allocation
// creeping into a zero-alloc hot path is precisely the regression class the
// gate exists to catch, and with the tuple-native storage the update and
// batch benchmarks have small deterministic allocation counts. A baseline's
// footprint-B is gated the same way: a deterministic byte count that may
// only fall.

// DiffOptions tunes CompareReports.
type DiffOptions struct {
	// NsTolerance is the allowed fractional ns/op regression before a
	// benchmark fails: 0.30 passes anything up to 30% slower than baseline.
	NsTolerance float64
	// AllocTolerance is the allowed fractional allocs/op increase. 0 (the
	// default everywhere) is the fully strict gate: any increase fails.
	// A non-zero value exists only for macro benchmarks with a legitimately
	// nondeterministic allocation profile; keep it well under
	// 1 / (smallest pinned baseline count).
	AllocTolerance float64
	// AllowMissing suppresses failures for baseline benchmarks absent from
	// the fresh run (e.g. when diffing a partial run).
	AllowMissing bool
	// AllocNondet marks benchmarks whose allocation profile is inherently
	// nondeterministic — paths through the Go HTTP stack, say, where
	// connection reuse and buffer pooling jitter the count run to run.
	// Matched benchmarks are gated with AllocNondetTolerance instead of
	// AllocTolerance; nil marks none.
	AllocNondet func(name string) bool
	// AllocNondetTolerance is the fractional allocs/op increase allowed
	// for AllocNondet-matched benchmarks. 0 means 0.5 (50%): loose enough
	// to absorb HTTP-stack jitter, tight enough to catch a per-op
	// allocation doubling.
	AllocNondetTolerance float64
}

// BenchDiff is the comparison result for one benchmark name.
type BenchDiff struct {
	Name                  string
	BaseNs, NewNs         float64
	BaseAllocs, NewAllocs float64
	// BaseFootprint and NewFootprint are footprint-B, 0 when not reported.
	BaseFootprint, NewFootprint float64
	// Missing: in the baseline but not in the fresh run. New: in the fresh
	// run but not in the baseline (informational, never a failure).
	Missing, New bool
	// Bad marks a gate failure; Reason says why.
	Bad    bool
	Reason string
}

// NsDelta returns the fractional ns/op change (+0.10 = 10% slower).
func (d *BenchDiff) NsDelta() float64 {
	if d.BaseNs == 0 {
		return 0
	}
	return d.NewNs/d.BaseNs - 1
}

// CompareReports diffs a fresh report against the baseline, in baseline
// order (fresh-only benchmarks appended). A benchmark fails the gate when
// its ns/op regresses beyond the tolerance, when its allocs/op or its
// baseline's footprint-B grows beyond the allocation tolerance (a footprint
// the fresh run no longer reports counts as grown), or when it disappeared
// from the fresh run (unless AllowMissing).
func CompareReports(base, fresh *GoBenchReport, opts DiffOptions) []BenchDiff {
	fresh2 := map[string]*GoBenchResult{}
	for i := range fresh.Benchmarks {
		fresh2[fresh.Benchmarks[i].Name] = &fresh.Benchmarks[i]
	}
	seen := map[string]bool{}
	var out []BenchDiff
	for i := range base.Benchmarks {
		b := &base.Benchmarks[i]
		seen[b.Name] = true
		d := BenchDiff{Name: b.Name, BaseNs: b.NsPerOp, BaseAllocs: b.AllocsPerOp, BaseFootprint: b.FootprintBytes}
		f, ok := fresh2[b.Name]
		if !ok {
			d.Missing = true
			if !opts.AllowMissing {
				d.Bad = true
				d.Reason = "missing from the fresh run (bench regex no longer covers it?)"
			}
			out = append(out, d)
			continue
		}
		d.NewNs, d.NewAllocs, d.NewFootprint = f.NsPerOp, f.AllocsPerOp, f.FootprintBytes
		allocTol := opts.AllocTolerance
		if opts.AllocNondet != nil && opts.AllocNondet(b.Name) {
			allocTol = opts.AllocNondetTolerance
			if allocTol == 0 {
				allocTol = 0.5
			}
		}
		switch {
		case d.NewAllocs > d.BaseAllocs*(1+allocTol):
			d.Bad = true
			d.Reason = fmt.Sprintf("allocs/op regressed: %.0f -> %.0f (tolerance %.1f%%)",
				d.BaseAllocs, d.NewAllocs, 100*allocTol)
		case d.BaseFootprint > 0 && (d.NewFootprint == 0 || d.NewFootprint > d.BaseFootprint*(1+allocTol)):
			d.Bad = true
			d.Reason = fmt.Sprintf("footprint-B regressed: %.0f -> %.0f (tolerance %.1f%%)",
				d.BaseFootprint, d.NewFootprint, 100*allocTol)
		case d.BaseNs > 0 && d.NewNs > d.BaseNs*(1+opts.NsTolerance):
			d.Bad = true
			d.Reason = fmt.Sprintf("ns/op regressed %+.1f%% (tolerance %.0f%%)",
				100*d.NsDelta(), 100*opts.NsTolerance)
		}
		out = append(out, d)
	}
	for i := range fresh.Benchmarks {
		f := &fresh.Benchmarks[i]
		if !seen[f.Name] {
			out = append(out, BenchDiff{
				Name: f.Name, New: true, NewNs: f.NsPerOp, NewAllocs: f.AllocsPerOp, NewFootprint: f.FootprintBytes,
			})
		}
	}
	return out
}
