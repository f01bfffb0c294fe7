// Command bench2json converts `go test -bench` output on stdin into the
// JSON perf-trajectory format on stdout. It is the bridge between the Go
// benchmark runner and the repository's BENCH_*.json baseline files:
//
//	go test -run '^$' -bench 'Update|Batch' -benchmem | bench2json > BENCH_update.json
//
// Non-benchmark lines are ignored, so the full test output can be piped in.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"ivmeps/internal/benchutil"
)

func main() {
	// The pipeline `go test -bench | bench2json` runs both ends in one
	// environment, so this process's GOMAXPROCS is the benchmarks'.
	rep, err := benchutil.ParseGoBench(os.Stdin, runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "bench2json: no benchmark lines found on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}
