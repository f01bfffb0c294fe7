package benchutil

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Benchmark regression gate: compare a fresh bench2json report against a
// committed baseline (BENCH_update.json). Time is compared with a generous
// fractional tolerance, since ns/op is machine- and load-dependent;
// allocations are compared with strict equality by default — an allocation
// creeping into a zero-alloc hot path is precisely the regression class the
// gate exists to catch, and with the tuple-native storage the update and
// batch benchmarks have small deterministic allocation counts. Every custom
// metric a baseline line records is gated the same way — footprint-B, a
// deterministic byte count, and view-writes/op, a deterministic write count,
// may only fall — except a time per unit of work (a unit starting "ns/"),
// which is gated like ns/op.

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
	// AllocNondet marks benchmarks whose allocation profile is inherently
	// nondeterministic — paths through the Go HTTP stack, say, where
	// connection reuse and buffer pooling jitter the count run to run.
	// Matched benchmarks are gated with allocNondetTolerance instead of
	// AllocTolerance; nil marks none.
	AllocNondet func(name string) bool
}

// allocNondetTolerance is the fractional allocs/op increase allowed for
// AllocNondet-matched benchmarks: loose enough to absorb HTTP-stack jitter,
// tight enough to catch a per-op allocation doubling.
const allocNondetTolerance = 0.5

// BenchDiff is the comparison result for one benchmark name.
type BenchDiff struct {
	Name                  string
	BaseNs, NewNs         float64
	BaseAllocs, NewAllocs float64
	// BaseMetrics and NewMetrics are the lines' custom metrics, by unit.
	BaseMetrics, NewMetrics map[string]float64
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
// its ns/op regresses beyond the tolerance, when its allocs/op or one of its
// baseline's custom metrics grows beyond the allocation tolerance (a metric
// the fresh run no longer reports counts as grown; a time per unit, beyond
// the ns/op tolerance), or when it disappeared from the fresh run.
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
		d := BenchDiff{Name: b.Name, BaseNs: b.NsPerOp, BaseAllocs: b.AllocsPerOp, BaseMetrics: b.Metrics}
		f, ok := fresh2[b.Name]
		if !ok {
			d.Missing, d.Bad = true, true
			d.Reason = "missing from the fresh run (bench regex no longer covers it?)"
			out = append(out, d)
			continue
		}
		d.NewNs, d.NewAllocs, d.NewMetrics = f.NsPerOp, f.AllocsPerOp, f.Metrics
		allocTol := opts.AllocTolerance
		if opts.AllocNondet != nil && opts.AllocNondet(b.Name) {
			allocTol = allocNondetTolerance
		}
		switch {
		case d.NewAllocs > d.BaseAllocs*(1+allocTol):
			d.Bad = true
			d.Reason = fmt.Sprintf("allocs/op regressed: %.0f -> %.0f (tolerance %.1f%%)",
				d.BaseAllocs, d.NewAllocs, 100*allocTol)
		case d.BaseNs > 0 && d.NewNs > d.BaseNs*(1+opts.NsTolerance):
			d.Bad = true
			d.Reason = fmt.Sprintf("ns/op regressed %+.1f%% (tolerance %.0f%%)",
				100*d.NsDelta(), 100*opts.NsTolerance)
		default:
			d.Reason = metricRegressed(d.BaseMetrics, d.NewMetrics, allocTol, opts.NsTolerance)
			d.Bad = d.Reason != ""
		}
		out = append(out, d)
	}
	for i := range fresh.Benchmarks {
		f := &fresh.Benchmarks[i]
		if !seen[f.Name] {
			out = append(out, BenchDiff{
				Name: f.Name, New: true, NewNs: f.NsPerOp, NewAllocs: f.AllocsPerOp, NewMetrics: f.Metrics,
			})
		}
	}
	return out
}

// metricRegressed says which custom metric of a baseline line, in unit
// order, the fresh line reports higher than tol allows, or no longer
// reports; "" when none. A unit starting "ns/" is a time, allowed nsTol.
func metricRegressed(base, fresh map[string]float64, tol, nsTol float64) string {
	for _, unit := range slices.Sorted(maps.Keys(base)) {
		b := base[unit]
		v, ok := fresh[unit]
		t := tol
		if strings.HasPrefix(unit, "ns/") {
			t = nsTol
		}
		switch {
		case !ok:
			return fmt.Sprintf("%s missing from the fresh run", unit)
		case v > b*(1+t):
			return fmt.Sprintf("%s regressed: %g -> %g (tolerance %.1f%%)", unit, b, v, 100*t)
		}
	}
	return ""
}
