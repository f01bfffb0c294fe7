package benchutil

import (
	"strings"
	"testing"
)

func report(benches ...GoBenchResult) *GoBenchReport {
	return &GoBenchReport{Benchmarks: benches}
}

func TestCompareReports(t *testing.T) {
	base := report(
		GoBenchResult{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 0},
		GoBenchResult{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 5},
		GoBenchResult{Name: "BenchmarkGone", NsPerOp: 10},
	)
	fresh := report(
		GoBenchResult{Name: "BenchmarkA", NsPerOp: 120, AllocsPerOp: 0},  // +20%: within tol
		GoBenchResult{Name: "BenchmarkB", NsPerOp: 900, AllocsPerOp: 6},  // alloc regression
		GoBenchResult{Name: "BenchmarkNew", NsPerOp: 50, AllocsPerOp: 1}, // informational
	)
	diffs := CompareReports(base, fresh, DiffOptions{NsTolerance: 0.30})
	byName := map[string]BenchDiff{}
	for _, d := range diffs {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkA"]; d.Bad {
		t.Fatalf("A failed within tolerance: %+v", d)
	}
	if d := byName["BenchmarkB"]; !d.Bad || !strings.Contains(d.Reason, "allocs/op") {
		t.Fatalf("B alloc regression not flagged: %+v", d)
	}
	if d := byName["BenchmarkGone"]; !d.Bad || !d.Missing {
		t.Fatalf("missing benchmark not flagged: %+v", d)
	}
	if d := byName["BenchmarkNew"]; d.Bad || !d.New {
		t.Fatalf("fresh-only benchmark should be informational: %+v", d)
	}

	// A fractional alloc tolerance absorbs jitter on large counts but a
	// zero-alloc baseline still fails on any allocation.
	baseBig := report(
		GoBenchResult{Name: "BenchmarkBig", NsPerOp: 100, AllocsPerOp: 100000},
		GoBenchResult{Name: "BenchmarkZero", NsPerOp: 100, AllocsPerOp: 0},
	)
	freshBig := report(
		GoBenchResult{Name: "BenchmarkBig", NsPerOp: 100, AllocsPerOp: 100500},
		GoBenchResult{Name: "BenchmarkZero", NsPerOp: 100, AllocsPerOp: 1},
	)
	diffs = CompareReports(baseBig, freshBig, DiffOptions{NsTolerance: 0.30, AllocTolerance: 0.01})
	byName = map[string]BenchDiff{}
	for _, d := range diffs {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkBig"]; d.Bad {
		t.Fatalf("0.5%% alloc jitter failed under 1%% tolerance: %+v", d)
	}
	if d := byName["BenchmarkZero"]; !d.Bad || !strings.Contains(d.Reason, "allocs/op") {
		t.Fatalf("zero-alloc baseline gaining an alloc not flagged: %+v", d)
	}

	// AllocNondet-matched benchmarks get the loose 50% default tolerance;
	// unmatched ones in the same run stay exact, and even a matched one
	// fails past the loose bound.
	baseSrv := report(
		GoBenchResult{Name: "BenchmarkServerCommit", NsPerOp: 100, AllocsPerOp: 600},
		GoBenchResult{Name: "BenchmarkServerBloat", NsPerOp: 100, AllocsPerOp: 600},
		GoBenchResult{Name: "BenchmarkZero", NsPerOp: 100, AllocsPerOp: 0},
	)
	freshSrv := report(
		GoBenchResult{Name: "BenchmarkServerCommit", NsPerOp: 100, AllocsPerOp: 800}, // +33%: jitter
		GoBenchResult{Name: "BenchmarkServerBloat", NsPerOp: 100, AllocsPerOp: 1200}, // 2×: real
		GoBenchResult{Name: "BenchmarkZero", NsPerOp: 100, AllocsPerOp: 1},
	)
	nondet := func(name string) bool { return strings.HasPrefix(name, "BenchmarkServer") }
	diffs = CompareReports(baseSrv, freshSrv, DiffOptions{NsTolerance: 0.30, AllocNondet: nondet})
	byName = map[string]BenchDiff{}
	for _, d := range diffs {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkServerCommit"]; d.Bad {
		t.Fatalf("nondet alloc jitter failed under the 50%% default: %+v", d)
	}
	if d := byName["BenchmarkServerBloat"]; !d.Bad || !strings.Contains(d.Reason, "allocs/op") {
		t.Fatalf("nondet alloc doubling not flagged: %+v", d)
	}
	if d := byName["BenchmarkZero"]; !d.Bad {
		t.Fatalf("unmatched benchmark lost the exact gate: %+v", d)
	}

	// Time regression beyond tolerance fails; missing tolerated on demand.
	fresh2 := report(
		GoBenchResult{Name: "BenchmarkA", NsPerOp: 150, AllocsPerOp: 0},
		GoBenchResult{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 5},
	)
	diffs = CompareReports(base, fresh2, DiffOptions{NsTolerance: 0.30, AllowMissing: true})
	byName = map[string]BenchDiff{}
	for _, d := range diffs {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkA"]; !d.Bad || !strings.Contains(d.Reason, "ns/op") {
		t.Fatalf("50%% time regression not flagged: %+v", d)
	}
	if d := byName["BenchmarkGone"]; d.Bad {
		t.Fatalf("AllowMissing did not tolerate a missing benchmark: %+v", d)
	}
	if d := byName["BenchmarkB"]; d.Bad {
		t.Fatalf("unchanged benchmark flagged: %+v", d)
	}
}

// The footprint-B metric BenchmarkBuild reports survives parsing and is gated
// like allocs/op: a baseline's bytes may fall or stay, not grow past the
// allocation tolerance nor vanish from the fresh run; lines without one are
// not gated on it.
func TestFootprintGate(t *testing.T) {
	parse := func(lines string) *GoBenchReport {
		t.Helper()
		rep, err := ParseGoBench(strings.NewReader(lines), 2)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := parse(`BenchmarkBuild/a-2  10  100 ns/op  5 B/op  7 allocs/op  4515104 footprint-B
BenchmarkBuild/b-2  10  100 ns/op  5 B/op  7 allocs/op  1000 footprint-B
BenchmarkBuild/c-2  10  100 ns/op  5 B/op  7 allocs/op  1000 footprint-B
BenchmarkBuild/d-2  10  100 ns/op  5 B/op  7 allocs/op  1000 footprint-B
BenchmarkMajorRebalance-2  10  100 ns/op  0 B/op  0 allocs/op
`)
	if got := base.Benchmarks[0]; got.Name != "BenchmarkBuild/a" || got.FootprintBytes != 4515104 || got.AllocsPerOp != 7 {
		t.Fatalf("parsed %+v, want footprint-B 4515104 beside 7 allocs/op", got)
	}
	fresh := parse(`BenchmarkBuild/a-2  10  100 ns/op  5 B/op  7 allocs/op  4400000 footprint-B
BenchmarkBuild/b-2  10  100 ns/op  5 B/op  7 allocs/op  1005 footprint-B
BenchmarkBuild/c-2  10  100 ns/op  5 B/op  7 allocs/op  1020 footprint-B
BenchmarkBuild/d-2  10  100 ns/op  5 B/op  7 allocs/op
BenchmarkMajorRebalance-2  10  100 ns/op  0 B/op  0 allocs/op  64 footprint-B
`)
	want := map[string]bool{"BenchmarkBuild/a": false, "BenchmarkBuild/b": false, "BenchmarkBuild/c": true, "BenchmarkBuild/d": true, "BenchmarkMajorRebalance": false}
	for _, d := range CompareReports(base, fresh, DiffOptions{AllocTolerance: 0.01}) {
		if d.Bad != want[d.Name] || d.Bad && !strings.Contains(d.Reason, "footprint-B") {
			t.Errorf("%s: footprint-B %.0f -> %.0f gated bad=%v (%s), want bad=%v", d.Name, d.BaseFootprint, d.NewFootprint, d.Bad, d.Reason, want[d.Name])
		}
	}
}
