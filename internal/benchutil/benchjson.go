package benchutil

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// GoBenchResult is one parsed line of `go test -bench` output.
type GoBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every custom metric the line reports (b.ReportMetric),
	// by unit: footprint-B, the bytes BenchmarkBuild's built state holds;
	// view-writes/op, the view rows BenchmarkBatchCrossing's commits write;
	// and so on.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// GoBenchReport is a parsed `go test -bench` run: the environment header
// lines plus every benchmark result, in input order. It is the schema of
// the BENCH_*.json perf-trajectory files.
type GoBenchReport struct {
	Goos       string          `json:"goos,omitempty"`
	Goarch     string          `json:"goarch,omitempty"`
	Pkg        string          `json:"pkg,omitempty"`
	CPU        string          `json:"cpu,omitempty"`
	Benchmarks []GoBenchResult `json:"benchmarks"`
}

// ParseGoBench parses the plain-text output of `go test -bench` (with or
// without -benchmem) into a report. Unrecognized lines are skipped, so the
// full test output can be piped in unfiltered. procs is the GOMAXPROCS the
// benchmarks ran at: above one, `go test` appends "-<procs>" to every
// name, and that suffix — only that one, so "subs=8" or a report from
// another machine keep their digits — is dropped, so a report compares by
// name with a baseline recorded at any core count.
func ParseGoBench(r io.Reader, procs int) (*GoBenchReport, error) {
	rep := &GoBenchReport{}
	suffix := "-" + strconv.Itoa(procs)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Shape: Name iterations value unit [value unit ...]
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := GoBenchResult{Name: fields[0], Iterations: iters}
		if procs > 1 {
			res.Name = strings.TrimSuffix(res.Name, suffix)
		}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				ok = true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[fields[i+1]] = v
			}
		}
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}
