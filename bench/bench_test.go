package main

import (
	"math"
	"testing"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {25, 3}, {50, 5}, {75, 7}, {100, 9}, {90, 8.2}, {-5, 1}, {150, 9},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if xs[0] != 9 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN, not a number that could pass for a measurement")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0];
// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5].
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3, 5}); q1 != 2.5 || q3 != 5.5 {
		t.Errorf("quartiles(3,5) = %v, %v, want 2.5, 5.5", q1, q3)
	}
}

func testStreamConfig() streamConfig {
	return streamConfig{rels: []relSpec{{"R", 1, 300, 100}, {"S", 0, 200, 200}}, keys: 64, skew: 1.15, table: 50, lanes: 2}
}

// The generator's contract: a delete always hits a tuple that is present, a
// slide leaves N unchanged, no tuple is ever generated twice, and joinSize is
// the size of the join of the live tuples.
func TestSlidingWindowInvariants(t *testing.T) {
	cfg := testStreamConfig()
	s := newStream(7, cfg)
	type tup struct {
		rel  int
		a, b int64
	}
	live := map[tup]bool{}
	ever := map[tup]bool{}
	s.liveRows(func(rel int, row []int64) {
		k := tup{rel, row[0], row[1]}
		if ever[k] {
			t.Fatalf("base tuple %v generated twice", k)
		}
		live[k], ever[k] = true, true
	})
	if len(live) != 500 || s.liveCount() != 500 {
		t.Fatalf("base has %d tuples (liveCount %d), want 500", len(live), s.liveCount())
	}
	bruteJoin := func() int64 {
		deg := map[int64][2]int64{}
		for k := range live {
			key := []int64{k.a, k.b}[cfg.rels[k.rel].keyPos]
			d := deg[key]
			d[k.rel]++
			deg[key] = d
		}
		var n int64
		for _, d := range deg {
			n += d[0] * d[1]
		}
		return n
	}
	apply := func(ops []op) {
		for _, o := range ops {
			k := tup{o.rel, o.row[0], o.row[1]}
			switch o.mult {
			case 1:
				if ever[k] {
					t.Fatalf("tuple %v inserted a second time", k)
				}
				live[k], ever[k] = true, true
			case -1:
				if !live[k] {
					t.Fatalf("delete of %v, which is not present", k)
				}
				delete(live, k)
			default:
				t.Fatalf("op with multiplicity %d", o.mult)
			}
		}
	}
	for step := 0; step < 400; step++ {
		lane := step % cfg.lanes
		ops := s.slide(lane, 4, nil)
		for _, o := range ops {
			if o.row[cfg.rels[o.rel].keyPos]%int64(cfg.lanes) != int64(lane) && o.mult == 1 {
				t.Fatalf("lane %d inserted key %d", lane, o.row[cfg.rels[o.rel].keyPos])
			}
		}
		apply(ops)
		if len(live) != 500 || s.liveCount() != 500 {
			t.Fatalf("step %d: N = %d (liveCount %d), want 500", step, len(live), s.liveCount())
		}
	}
	if got, want := s.joinSize, bruteJoin(); got != want {
		t.Fatalf("joinSize = %d, join of the live tuples has %d", got, want)
	}
	// Growing and shrinking (lib-grow's shape) and draining keep the same contract.
	var ops []op
	for i := 0; i < 300; i++ {
		ops = s.insert(0, i%2, ops)
	}
	for i := 0; i < 300; i++ {
		ops = s.remove(0, i%2, ops)
	}
	apply(ops)
	apply(s.drain(50, nil))
	if len(live) != 100 || s.liveCount() != 100 {
		t.Fatalf("after drain: N = %d (liveCount %d), want 100", len(live), s.liveCount())
	}
	if got, want := s.joinSize, bruteJoin(); got != want {
		t.Fatalf("after drain: joinSize = %d, join has %d", got, want)
	}
	n := 0
	s.liveRows(func(rel int, row []int64) {
		n++
		if !live[tup{rel, row[0], row[1]}] {
			t.Fatalf("liveRows yields %v, which was deleted", row)
		}
	})
	if n != len(live) {
		t.Fatalf("liveRows yields %d tuples, %d are live", n, len(live))
	}
}

// A table's worth of draws has exactly the distribution's degree profile,
// whatever the seed: the seed only permutes it.
func TestKeysAreDealtFromStratifiedTables(t *testing.T) {
	uniform := quantileTable(40, 0, 40)
	for k, got := range uniform {
		if got != int64(k) {
			t.Fatalf("uniform table of all keys: entry %d is key %d", k, got)
		}
	}
	zipf := quantileTable(1000, 1.15, 500)
	counts := map[int64]int{}
	for i, k := range zipf {
		if k < 0 || k >= 1000 || (i > 0 && k < zipf[i-1]) {
			t.Fatalf("Zipf table entry %d = %d: out of range or decreasing", i, k)
		}
		counts[k]++
	}
	// P(0) = 1/Σ(1+k)^−1.15 over 1000 keys ≈ 0.2009, so key 0 holds a fifth of the table.
	if counts[0] < 99 || counts[0] > 102 {
		t.Errorf("key 0 holds %d of 500 table entries, want ≈ 100", counts[0])
	}
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Errorf("degrees do not fall with rank: %d, %d, %d", counts[0], counts[1], counts[2])
	}
	for _, seed := range []int64{1, 2} {
		s := newStream(seed, streamConfig{rels: []relSpec{{"R", 0, 0, 0}}, keys: 1000, skew: 1.15, table: 500, lanes: 1})
		for round := 0; round < 3; round++ {
			got := map[int64]int{}
			for i := 0; i < 500; i++ {
				got[s.drawKey(0, 0)]++
			}
			for k, n := range counts {
				if got[k] != n {
					t.Fatalf("seed %d round %d: key %d dealt %d times, the table holds it %d times", seed, round, k, got[k], n)
				}
			}
		}
	}
}

func TestChecksumFollowsSeed(t *testing.T) {
	sum := func(seed int64) uint64 {
		s := newStream(seed, testStreamConfig())
		for i := 0; i < 50; i++ {
			s.slide(i%2, 3, nil)
		}
		return s.sum
	}
	if sum(11) != sum(11) {
		t.Error("same seed, different input checksum")
	}
	if sum(11) == sum(12) {
		t.Error("different seeds, same input checksum")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "rep", Start: 0, End: 100, Parent: -1},
		{Name: "w1", Start: 10, End: 60, Parent: 0},
		{Name: "commit", Start: 12, End: 30, Parent: 1},
		{Name: "commit", Start: 31, End: 59, Parent: 1},
		{Name: "enum", Start: 60, End: 95, Parent: 0},
	}
	want := []int64{100 - 50 - 35, 50 - 18 - 28, 18, 28, 35}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	var tr *tracer // a nil tracer records nothing and does not crash
	tr.end(tr.begin("x", -1, 0))
}

// A whole-stack timing is the plain median of the repetitions' values, over
// the repetitions asked for: all of an untraced run, the odd ones of a traced.
func TestStackIsMedianOverKeptRepetitions(t *testing.T) {
	m := &meter{
		updPerS: []float64{10, 50, 20, 70, 30, 90},
		watchMS: []float64{1, 2, 3, 4, 5, 6}, firstUS: []float64{6, 5, 4, 3, 2, 1}, rowsPerS: []float64{1, 1, 1, 1, 1, 1},
	}
	if got := m.stack(func(int) bool { return true })["stack.updates_per_s"]; got != 40 {
		t.Errorf("median over all repetitions = %v, want 40", got)
	}
	odd := m.stack(func(r int) bool { return r%2 == 1 })
	if odd["stack.updates_per_s"] != 70 || odd["stack.watch_delivery_ms_p50"] != 4 || odd["stack.enum_first_row_us"] != 3 {
		t.Errorf("medians over the odd repetitions = %v, want 70, 4 and 3", odd)
	}
}

// named passes listed values on with their units, reads 0 for a listed
// metric that was not measured, and refuses a measured one that is not listed.
func TestNamed(t *testing.T) {
	list := []metricSpec{{Name: "a_ms", Unit: "ms"}, {Name: "b", Unit: "count"}}
	got, err := named(list, map[string]float64{"a_ms": 1.5})
	if err != nil || len(got) != 2 || got["a_ms"] != (value{1.5, "ms"}) || got["b"] != (value{0, "count"}) {
		t.Errorf("named = %v, %v", got, err)
	}
	if _, err := named(list, map[string]float64{"a_us": 1.5}); err == nil {
		t.Error("named accepted a metric BENCHMARK.json does not list")
	}
}

// Every workload BENCHMARK.json names runs, at -smoke size, its whole life
// cycle — set-ups, repetitions, correctness checks, and in the traced run the
// peeled layers — with no failed operation, measures nothing BENCHMARK.json
// does not list (run fails if it does), and reports every end-to-end metric
// strictly positive.
func TestSmokeRuns(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir()) // the durable workload writes under ./.bench_build
	if len(sp.Workloads) != len(configs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(configs))
	}
	for _, w := range sp.Workloads {
		cfg := findConfig(w.Name)
		if cfg == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
		for _, traced := range []bool{false, true} {
			rep, err := run(cfg.smoke(), sp, 3, 3, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rep.result.Failed != 0 || !rep.result.Correct || rep.result.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, rep.result.Failed, rep.result.Attempted, rep.info["errors"])
			}
			if traced {
				continue
			}
			for name, v := range rep.result.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be strictly positive", w.Name, name, v.Value)
				}
			}
		}
	}
}

// The same seed does the same work: the exact-count metrics and the input
// checksum repeat to the last digit.
func TestSameSeedSameCounts(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	cfg := findConfig("lib-skew").smoke()
	a, err := run(cfg, sp, 5, 3, false, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(cfg, sp, 5, 3, false, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"view_deltas_per_update"} {
		if a.result.Metrics[name].Value != b.result.Metrics[name].Value {
			t.Errorf("%s: %v then %v with the same seed", name, a.result.Metrics[name].Value, b.result.Metrics[name].Value)
		}
	}
	if a.info["input_checksum"] != b.info["input_checksum"] {
		t.Errorf("input checksum %v then %v with the same seed", a.info["input_checksum"], b.info["input_checksum"])
	}
}
