// Command benchdiff gates performance regressions: it compares a fresh
// bench2json report against the committed baseline and exits non-zero when
// a benchmark regressed. Time (ns/op) is allowed a generous fractional
// tolerance (-tol); allocations (allocs/op) are compared with strict
// equality by default (-alloc-tol raises that): the single-tuple update
// path is pinned allocation-free and the batch paths to small
// deterministic counts, and an allocation creeping into one is the
// regression class this gate exists to catch. Benchmarks whose allocation
// profile is legitimately nondeterministic — the BenchmarkServer* HTTP-path
// benchmarks ride the Go net/http stack, whose connection reuse and buffer
// pooling jitter the count — are matched by -alloc-nondet and gated with a
// loose 50% tolerance instead. A baseline line that records footprint-B
// (the bytes BenchmarkBuild's built engine holds) has it gated like its
// allocs/op.
//
// The Makefile runs it against three baselines, each from its own
// benchmark regex (BENCH_RE, BENCH_ENUM_RE, BENCH_BUILD_RE): what
// `make bench-check-allocs` runs for the update set is
//
//	go test -run '^$' -bench 'Update|Batch|Sharded|WAL|Watch|Server' -benchmem | bench2json > BENCH_check.json
//	benchdiff -baseline BENCH_update.json -new BENCH_check.json -allocs-only -alloc-nondet '^BenchmarkServer'
//
// and the read-path and preprocessing sets are gated the same way against
// BENCH_enum.json and BENCH_build.json at -alloc-tol 0.01 (the
// preprocessing set at GOMAXPROCS 2, since a build's helpers allocate).
//
// Machine-to-machine ns/op variance is large; compare like with like (same
// machine as the committed baseline) or raise -tol. -allocs-only skips the
// time comparison entirely: allocs/op is machine-independent and, with
// every benchmark warmed to its steady state, deterministic, so the CI
// bench job gates it hard while `make diff-time` keeps the ns/op diff
// advisory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"

	"ivmeps/internal/benchutil"
)

func readReport(path string) (*benchutil.GoBenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep benchutil.GoBenchReport
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func main() {
	var (
		basePath    = flag.String("baseline", "BENCH_update.json", "committed baseline report")
		newPath     = flag.String("new", "", "fresh bench2json report to compare (required)")
		tol         = flag.Float64("tol", 0.30, "allowed fractional ns/op regression")
		allocTol    = flag.Float64("alloc-tol", 0, "allowed fractional allocs/op and footprint-B increase (default strict: any increase fails)")
		allocsOnly  = flag.Bool("allocs-only", false, "gate allocs/op only; ignore ns/op entirely (for noisy shared runners)")
		allocNondet = flag.String("alloc-nondet", "", "regexp of benchmarks with nondeterministic allocs/op, gated at 50% tolerance instead of exact")
	)
	flag.Parse()
	if *allocsOnly {
		*tol = math.Inf(1)
	}
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		flag.Usage()
		os.Exit(2)
	}
	base, err := readReport(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, err := readReport(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	opts := benchutil.DiffOptions{
		NsTolerance:    *tol,
		AllocTolerance: *allocTol,
	}
	if *allocNondet != "" {
		re, err := regexp.Compile(*allocNondet)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff: -alloc-nondet:", err)
			os.Exit(2)
		}
		opts.AllocNondet = re.MatchString
	}
	diffs := benchutil.CompareReports(base, fresh, opts)
	bad, compared := 0, 0
	fmt.Printf("%-55s %12s %12s %8s %9s  %s\n", "benchmark", "base ns/op", "new ns/op", "Δ%", "allocs", "verdict")
	for _, d := range diffs {
		verdict := "ok"
		switch {
		case d.Bad:
			verdict = "FAIL: " + d.Reason
			bad++
		case d.New:
			verdict = "new (no baseline)"
		}
		if !d.Missing && !d.New {
			compared++
		}
		allocs := fmt.Sprintf("%.0f→%.0f", d.BaseAllocs, d.NewAllocs)
		if d.BaseFootprint > 0 || d.NewFootprint > 0 {
			verdict += fmt.Sprintf(" (footprint-B %.0f→%.0f)", d.BaseFootprint, d.NewFootprint)
		}
		if d.Missing {
			fmt.Printf("%-55s %12.0f %12s %8s %9s  %s\n", d.Name, d.BaseNs, "-", "-", "-", verdict)
			continue
		}
		if d.New {
			fmt.Printf("%-55s %12s %12.0f %8s %9s  %s\n", d.Name, "-", d.NewNs, "-", allocs, verdict)
			continue
		}
		fmt.Printf("%-55s %12.0f %12.0f %+7.1f%% %9s  %s\n", d.Name, d.BaseNs, d.NewNs, 100*d.NsDelta(), allocs, verdict)
	}
	if bad > 0 {
		fmt.Printf("\nbenchdiff: %d benchmark(s) regressed against %s (ns/op tolerance %.0f%%, allocs/op tolerance %.1f%%)\n",
			bad, *basePath, 100**tol, 100**allocTol)
		os.Exit(1)
	}
	if compared == 0 {
		fmt.Printf("\nbenchdiff: no benchmark of %s has a baseline in %s: nothing was compared\n", *newPath, *basePath)
		os.Exit(1)
	}
	fmt.Printf("\nbenchdiff: no regressions against %s (%d compared, ns/op tolerance %.0f%%, allocs/op tolerance %.1f%%)\n",
		*basePath, compared, 100**tol, 100**allocTol)
}
