// Command bench is the repository's end-to-end benchmark: four workloads
// (lib-skew, lib-grow, svc-mixed, svc-durable) driven through the public
// surfaces of ivmeps and its service layer, reporting the end-to-end metrics
// of a workload or, in a traced run, its per-layer metrics. README.md
// explains the method; BENCHMARK.json at the repository root names the
// workloads and the metrics with their units and bounds, and the benchmark
// reads the names and units from there.
//
//	bash bench/run.sh --workload lib-skew --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result object; the line before it
// describes the run (sizes, sample counts, Go version, seed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object on the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the one place the
// workloads' and metrics' names, units, directions and bounds are written.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("the benchmark runs from the root of a checkout: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// named gives measured values the names and units list has. A listed metric
// that was not measured — its layer is not on the workload's path — reads 0;
// a measured one that is not listed is an error, so a misspelt name cannot
// pass for a zero. A value that is not a number — a median of no samples —
// also becomes 0, which JSON can carry; the run has then counted a failure.
func named(list []metricSpec, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(list))
	for _, ms := range list {
		v := vals[ms.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[ms.Name] = value{v, ms.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured %s, which BENCHMARK.json does not list", name)
		}
	}
	return out, nil
}

// minReps is the fewest timed repetitions a run makes whatever --seconds
// says: below it a median over repetitions rests on a handful of values.
const minReps = 15

func main() {
	var (
		name      = flag.String("workload", "", "workload: lib-skew, lib-grow, svc-mixed or svc-durable")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Int("seconds", 15, "measuring time to aim for: one timed repetition per second of it (a repetition takes 0.5–1 s), at least 15, so the same flags always do the same work")
		trace     = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
		traceFile = flag.String("trace-file", "", "with -trace 1: write the recorded spans to this file, one JSON object per line")
		smoke     = flag.Bool("smoke", false, "shrink the workload to a fraction of a second (for tests; the numbers mean nothing)")
		aa        = flag.Int("aa", 0, "A/A check: run every workload in two alternating sets of this many runs, seeds -seed, -seed+1, …, and compare the sets (see aa.go)")
	)
	flag.Parse()
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	if *aa > 0 {
		os.Exit(runAA(sp, *aa, *seconds, *seed))
	}
	cfg := findConfig(*name)
	if cfg == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want lib-skew, lib-grow, svc-mixed or svc-durable)\n", *name)
		os.Exit(2)
	}
	if *smoke {
		cfg = cfg.smoke()
	}
	// The checkout this runs from has 2 CPUs' worth of the machine; fixing
	// GOMAXPROCS at that keeps the numbers comparable if it ever has more.
	runtime.GOMAXPROCS(2)

	reps := max(*seconds, minReps)
	if *trace == 1 {
		reps = tracedReps
	}
	if *smoke {
		reps = 4
	}
	r, err := run(cfg, sp, *seed, reps, *trace == 1, *traceFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(r.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	info, _ := json.Marshal(r.info) // plain maps of strings and numbers cannot fail to encode
	fmt.Printf("%s\n%s\n", info, out)
}

// report is a run's result plus the description printed before it.
type report struct {
	result result
	info   map[string]any
}

const (
	setups = 5 // cold set-ups per run; the last instance is the one measured
	// tracedReps is the number of repetitions of a traced run: every other
	// one records spans, the rest are its untraced baseline, and the time
	// saved goes to peeling the layers.
	tracedReps = 12
)

// run performs one run of one workload: cold set-ups, warm-up repetitions,
// timed repetitions, correctness checks.
func run(cfg *config, sp *spec, seed int64, reps int, traced bool, traceFile string) (*report, error) {
	began := time.Now()
	m := &meter{rep: -1}
	var in *instance
	var times []setupTimes
	var setupS []float64
	for i := 0; i < setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
			in = nil
			runtime.GC()
			debug.FreeOSMemory() // the next set-up, and peak RSS, must not see this one's garbage
		}
		var ts setupTimes
		var err error
		in, ts, err = cfg.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, ts)
		setupS = append(setupS, ts.total.Seconds())
		m.attempted++
	}
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapAlloc) / (1 << 20)
	// Peak RSS is that of serving the workload. How much garbage five
	// set-ups leave resident at their worst moment depends on how far the
	// concurrent collector had got, which is timing, not memory use; so the
	// high-water mark is reset here (Linux: "5" to clear_refs). Where that is
	// not allowed the mark simply keeps the set-ups in.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)

	var lay *layers
	if traced {
		m.tr = newTracer()
		lay = newLayers(cfg, in, m)
	}
	warm := &meter{rep: -1}
	for i := 0; i < 2; i++ {
		in.repetition(warm, -1)
	}
	m.attempted += warm.attempted
	m.failed += warm.failed
	m.errs = append(m.errs, warm.errs...)
	measureFrom := time.Now()
	for r := 0; r < reps; r++ {
		if lay != nil {
			lay.between(r)
		}
		in.repetition(m, r)
		if cfg.durable && r == reps/2 {
			// One checkpoint mid-run: later commits go to a fresh segment and
			// recovery replays only the second half of the log.
			t := time.Now()
			err := in.eng.Checkpoint()
			m.check(err == nil, "checkpoint: %v", err)
			if lay != nil {
				lay.checkpointMS = float64(time.Since(t)) / 1e6
			}
		}
		if cfg.grow > 0 {
			m.check(m.major[r] >= 2 && (m.minor[r] >= 1 || cfg.tiny),
				"repetition %d saw %v major and %v minor rebalances, want ≥ 2 and ≥ 1", r, m.major[r], m.minor[r])
		} else if !cfg.remote {
			m.check(m.major[r] == 0, "repetition %d saw %v major rebalances on a constant-N workload", r, m.major[r])
		}
	}
	measured := time.Since(measureFrom)
	rss := peakRSS() // before the checks, whose recomputation is not the program's memory
	if lay != nil {
		lay.peel()
	}
	checksum, rows := in.st.sum, in.st.joinSize
	recovered := in.verify(m)
	in = nil

	// Whole-stack timings — the median over the untraced repetitions of what
	// the clock read — and peak RSS. Every run measures them, but
	// BENCHMARK.json lists them per layer, without a bound: on this box the
	// timings do not repeat within a tenth and lib-grow's peak RSS not within
	// a twentieth (AA.md). An untraced run shows them in its description line.
	stack := m.stack(func(r int) bool { return !traced || r%2 == 1 })
	stack["stack.peak_rss_mb"] = rss
	rep := &report{info: map[string]any{
		"workload": cfg.name, "seed": seed, "repetitions": reps, "traced": traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(), "go": runtime.Version(),
		"input_checksum": fmt.Sprintf("%016x", checksum), "result_rows": rows, "live_heap_mb": liveHeap,
		"measured_s": measured.Seconds(), "run_s": time.Since(began).Seconds(),
		"setup_times_s": setupS, "stack": stack, "errors": m.errs,
	}}

	rep.result = result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed}
	var err error
	if traced {
		rep.result.Metrics, err = named(sp.PerLayer, lay.metrics(times, stack, liveHeap, checksum, recovered))
		if err == nil && traceFile != "" {
			err = m.tr.write(traceFile)
		}
	} else {
		rep.result.Metrics, err = named(sp.EndToEnd, map[string]float64{
			"setup_s":                median(setupS),
			"view_deltas_per_update": float64(m.deltas) / float64(m.updates),
			"enum_allocs_per_row":    float64(m.enumAlloc) / float64(m.enumRows),
		})
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// peakRSS reads the process's resident-set high-water mark in MiB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
