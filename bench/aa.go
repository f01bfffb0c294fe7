package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// The A/A check: does the benchmark agree with itself? It runs every workload
// in two sets, A and B, of n runs each on the same tree — run i of both sets
// uses seed base+i, and the sets alternate (A₀ B₀ A₁ B₁ …) so that machine
// drift falls on both — and judges each workload × end-to-end metric by the
// rule a later change will be judged by, with BENCHMARK.json's bounds: within
// a set, the distance between the first and third quartile as a share of the
// median must stay within the metric's bound, and set B's median may not be
// worse than set A's by more than the bound. The rule itself exempts the
// spread of setup_s (its medians are still compared), so the check does too.
//
// A second table shows, without judging them, the whole-stack timings and the
// peak RSS the same runs measured: it is the evidence for listing them per
// layer.

// runOnce runs this binary once as a child process — a run's peak RSS and
// heap history must be its own — and returns its result object and the
// whole-stack values of its description line.
func runOnce(workload string, seed int64, seconds int) (*result, map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	var info struct {
		Stack map[string]float64 `json:"stack"`
	}
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("%s seed %d: printed %d lines, want a description and a result", workload, seed, len(lines))
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: no description line: %w", workload, seed, err)
	}
	return &r, info.Stack, nil
}

// sets holds one metric's values on one workload: a value per run, per set.
type sets [2][]float64

// row formats both sets' median, quartiles and spread, and returns the
// spreads and by how much B's median is worse than A's.
func (s *sets) row(better string) (cells string, spread [2]float64, worse float64) {
	var med [2]float64
	for i := range s {
		med[i] = median(s[i])
		q1, q3 := quartiles(s[i])
		spread[i] = (q3 - q1) / med[i]
		cells += fmt.Sprintf(" %.5g | %.5g – %.5g | %.2f%% |", med[i], q1, q3, 100*spread[i])
	}
	worse = (med[1] - med[0]) / med[0]
	if better == "higher" {
		worse = -worse
	}
	return cells, spread, worse
}

// runAA prints the check as a Markdown section and returns the exit code:
// 0 if every pair agrees, 1 on a breach, 2 if a run failed.
func runAA(sp *spec, n, seconds int, base int64) int {
	vals := map[string]*sets{} // "workload metric" → values
	add := func(workload, metric string, set int, v float64) {
		key := workload + " " + metric
		if vals[key] == nil {
			vals[key] = new(sets)
		}
		vals[key][set] = append(vals[key][set], v)
	}
	stackNames := map[string]bool{}
	failedOps := int64(0)
	for i := 0; i < n; i++ {
		for _, w := range sp.Workloads {
			for set := 0; set < 2; set++ {
				r, stack, err := runOnce(w.Name, base+int64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 2
				}
				failedOps += r.Failed
				for name, v := range r.Metrics {
					add(w.Name, name, set, v.Value)
				}
				for name, v := range stack {
					add(w.Name, name, set, v)
					stackNames[name] = true
				}
			}
		}
	}
	fmt.Printf("## Seeds %d–%d, %d runs per set, --seconds %d\n\n", base, base+int64(n)-1, n, seconds)
	fmt.Printf("Failed operations over all %d runs: %d.\n\n", 2*n*len(sp.Workloads), failedOps)
	const head = "| workload | metric | median A | quartiles A | spread A | median B | quartiles B | spread B | B worse by |"
	fmt.Println(head + " bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")
	breaches := 0
	for _, w := range sp.Workloads {
		for _, e := range sp.EndToEnd {
			s := vals[w.Name+" "+e.Name]
			if s == nil {
				fmt.Fprintf(os.Stderr, "bench: %s never reported %s\n", w.Name, e.Name)
				return 2
			}
			cells, spread, worse := s.row(e.Better)
			verdict := "ok"
			if worse > e.Bound || (e.Name != "setup_s" && (spread[0] > e.Bound || spread[1] > e.Bound)) {
				verdict = "**BREACH**"
				breaches++
			}
			fmt.Printf("| %s | %s |%s %+.2f%% | %g%% | %s |\n", w.Name, e.Name, cells, 100*worse, 100*e.Bound, verdict)
		}
	}
	fmt.Printf("\n%d breach(es).\n\n", breaches)

	fmt.Printf("Whole-stack timings and peak RSS of the same runs (per-layer metrics, no bound, not judged):\n\n")
	fmt.Println(head)
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	names := make([]string, 0, len(stackNames))
	for name := range stackNames {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, w := range sp.Workloads {
		for _, name := range names {
			better := "lower"
			for _, pl := range sp.PerLayer {
				if pl.Name == name {
					better = pl.Better
				}
			}
			cells, _, worse := vals[w.Name+" "+name].row(better)
			fmt.Printf("| %s | %s |%s %+.2f%% |\n", w.Name, name, cells, 100*worse)
		}
	}
	fmt.Println()
	if breaches > 0 || failedOps > 0 {
		return 1
	}
	return 0
}
