package benchutil

import (
	"strings"
	"testing"
)

func TestParseGoBench(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: ivmeps
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkUpdateSteadyState/q-hierarchical-8         	    8192	       626.8 ns/op	     191 B/op	       3 allocs/op
BenchmarkUpdateSteadyState/two-path-8               	    8192	      5870 ns/op	     725 B/op	      16 allocs/op
BenchmarkFig1Delay/eps=0.00-8                        	  100000	       101 ns/op
BenchmarkWatchFanout/subs=8-8                        	  100000	       101 ns/op
some stray output line
PASS
ok  	ivmeps	1.957s
`
	rep, err := ParseGoBench(strings.NewReader(in), 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "ivmeps" {
		t.Fatalf("header = %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	// The -GOMAXPROCS suffix is dropped once, so a name's own digits stay.
	if got := rep.Benchmarks[3].Name; got != "BenchmarkWatchFanout/subs=8" {
		t.Fatalf("name at GOMAXPROCS=8 = %q", got)
	}
	// Only the run's own suffix: a "-8" is part of the name at any other
	// GOMAXPROCS, and at 1 `go test` appends none.
	for _, procs := range []int{1, 2} {
		other, err := ParseGoBench(strings.NewReader(in), procs)
		if err != nil {
			t.Fatal(err)
		}
		if got := other.Benchmarks[3].Name; got != "BenchmarkWatchFanout/subs=8-8" {
			t.Fatalf("name at GOMAXPROCS=%d = %q", procs, got)
		}
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkUpdateSteadyState/q-hierarchical" || b0.Iterations != 8192 ||
		b0.NsPerOp != 626.8 || b0.BytesPerOp != 191 || b0.AllocsPerOp != 3 {
		t.Fatalf("first result = %+v", b0)
	}
	b2 := rep.Benchmarks[2]
	if b2.NsPerOp != 101 || b2.BytesPerOp != 0 || b2.AllocsPerOp != 0 {
		t.Fatalf("no-benchmem result = %+v", b2)
	}
}

func TestParseGoBenchEmpty(t *testing.T) {
	rep, err := ParseGoBench(strings.NewReader("PASS\nok ivmeps 0.1s\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from empty input", len(rep.Benchmarks))
	}
}
