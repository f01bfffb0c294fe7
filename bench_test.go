// Benchmarks regenerating the paper's figures and tables in testing.B form.
// Each benchmark corresponds to one artifact of the paper's presentation;
// the experiment IDs match internal/experiments and EXPERIMENTS.md. Run the
// full sweeps (with slope fits against the paper's exponents) via
//
//	go run ./cmd/hiqbench
//
// and the per-operation microbenchmarks here via
//
//	go test -bench=. -benchmem
package ivmeps_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"ivmeps"

	"ivmeps/internal/baseline"
	"ivmeps/internal/core"
	"ivmeps/internal/experiments"
	"ivmeps/internal/federation"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
	"ivmeps/internal/workload"
)

const benchN = 4000

func twoPathDB(n int) naive.Database {
	return workload.TwoPath(rand.New(rand.NewSource(1)), n, 1.15)
}

func mustIVM(b *testing.B, q *query.Query, eps float64, db naive.Database) *baseline.IVMEps {
	b.Helper()
	sys, err := baseline.NewIVMEps(q, eps)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Preprocess(db); err != nil {
		b.Fatal(err)
	}
	return sys
}

// replayStream applies b.N updates by cycling an insert-only stream:
// even passes insert the stream's tuples, odd passes delete them again, so
// the database stays bounded and deletes always have matching inserts.
func replayStream(b *testing.B, sys baseline.System, stream []workload.Update) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		u := stream[i%len(stream)]
		mult := u.Mult
		if (i/len(stream))%2 == 1 {
			mult = -mult
		}
		if err := sys.Update(u.Rel, u.Tuple, mult); err != nil {
			b.Fatal(err)
		}
	}
}

// viewWrites replays two whole passes of stream on sys, off the clock — its
// inserts, then the deletes that undo them, as replayStream's passes
// alternate — and returns the view rows they wrote per update, which the
// benchmark reports as view-writes/op: Stats.ViewDeltas and the rows of any
// refill (core.Engine.Writes). The passes leave the database as they found
// it and do not depend on b.N, so the count reads the same at any
// -benchtime, and the CI bench gate pins it like allocs/op.
func viewWrites(b *testing.B, sys *baseline.IVMEps, stream []workload.Update) float64 {
	b.Helper()
	e := sys.Engine()
	views := e.Stats().ViewDeltas
	_, refills := e.Writes()
	for _, sign := range []int64{1, -1} {
		for _, u := range stream {
			if err := sys.Update(u.Rel, u.Tuple, sign*u.Mult); err != nil {
				b.Fatal(err)
			}
		}
	}
	_, r := e.Writes()
	return float64(e.Stats().ViewDeltas-views+r-refills) / float64(2*len(stream))
}

// BenchmarkFig1StaticPreprocess measures the preprocessing stage of
// Figure 1 (left) / Theorem 2 at each ε: one op = one full preprocessing of
// an N≈2·benchN Zipf database (expected cost O(N^(1+ε)) for w=2).
func BenchmarkFig1StaticPreprocess(b *testing.B) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	for _, eps := range []float64{0, 0.5, 1} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			n := benchN
			if eps == 1 {
				n = benchN / 4
			}
			db := twoPathDB(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := baseline.NewIVMEpsStatic(q, eps)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Preprocess(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1DynamicUpdate measures the amortized single-tuple update of
// Figure 1 (left) / Theorem 4 at each ε: one op = one Update (expected
// amortized O(N^ε) for δ=1).
func BenchmarkFig1DynamicUpdate(b *testing.B) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	for _, eps := range []float64{0, 0.5, 1} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			db := workload.TwoPath(rng, benchN, 1.15)
			sys := mustIVM(b, q, eps, db.Clone())
			stream := workload.UpdateStream(rng, q, db, 4096, 0)
			writes := viewWrites(b, sys, stream)
			b.ResetTimer()
			replayStream(b, sys, stream)
			b.ReportMetric(writes, "view-writes/op")
		})
	}
}

// BenchmarkUpdateSteadyState measures the allocation-sensitive inner loop of
// the update path: single-tuple updates in a steady state (no growth, no
// rebalancing pressure), on a q-hierarchical query whose per-update cost the
// paper bounds by O(1) and on the non-q-hierarchical two-path query. Run with
// -benchmem; the allocs/op column is the headline number, and view-writes/op
// (viewWrites) the paper's cost of an update.
func BenchmarkUpdateSteadyState(b *testing.B) {
	cases := []struct {
		name string
		q    string
		eps  float64
		gen  func(rng *rand.Rand) naive.Database
	}{
		{"q-hierarchical", "Q(A, B) = R(A, B), S(B)", 0.5,
			func(rng *rand.Rand) naive.Database { return workload.TwoPathUnary(rng, benchN, 1.1) }},
		{"two-path", "Q(A, C) = R(A, B), S(B, C)", 0.5,
			func(rng *rand.Rand) naive.Database { return workload.TwoPath(rng, benchN, 1.15) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			q := query.MustParse(c.q)
			rng := rand.New(rand.NewSource(31))
			db := c.gen(rng)
			sys := mustIVM(b, q, c.eps, db.Clone())
			stream := workload.UpdateStream(rng, q, db, 4096, 0)
			writes := viewWrites(b, sys, stream)
			b.ReportAllocs()
			b.ResetTimer()
			replayStream(b, sys, stream)
			b.ReportMetric(writes, "view-writes/op")
		})
	}
}

// BenchmarkBatchVsSequential measures the batch-update amortization: one op
// = applying a 10k-row mixed insert/delete batch and then its inverse
// (keeping the database bounded), either row-by-row with Update or in one
// CommitBatch pass. The batch variant walks each view tree once per batch
// instead of once per row.
func BenchmarkBatchVsSequential(b *testing.B) {
	const batchRows = 10000
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	makeBatch := func(rng *rand.Rand) ([]tuple.Tuple, []int64, []tuple.Tuple, []int64) {
		// 10k rows over 4k distinct fresh tuples: duplicates exercise the
		// per-leaf aggregation, and the distinct count stays small enough
		// relative to N that neither the batch nor its inverse crosses a
		// rebalancing threshold (the cost compared is pure maintenance).
		pool := make([]tuple.Tuple, 4000)
		for i := range pool {
			pool[i] = tuple.Tuple{1_000_000 + int64(i), rng.Int63n(400)}
		}
		rows := make([]tuple.Tuple, batchRows)
		mults := make([]int64, batchRows)
		inv := make([]tuple.Tuple, batchRows)
		invMults := make([]int64, batchRows)
		for i := range rows {
			rows[i] = pool[rng.Intn(len(pool))]
			mults[i] = 1
			inv[len(inv)-1-i] = rows[i]
			invMults[len(inv)-1-i] = -1
		}
		return rows, mults, inv, invMults
	}
	newEngine := func(b *testing.B, rng *rand.Rand) *core.Engine {
		db := workload.TwoPath(rng, benchN, 1.15)
		e, err := core.New(q, core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		if err := core.Preprocess(e, db); err != nil {
			b.Fatal(err)
		}
		return e
	}
	// Both variants warm up outside the timer so allocs/op reflects the
	// steady state instead of b.N-dependent amortization of first-touch
	// growth (entry/index/map sizing on the first pass).
	b.Run("sequential", func(b *testing.B) {
		rng := rand.New(rand.NewSource(41))
		e := newEngine(b, rng)
		rows, mults, inv, invMults := makeBatch(rng)
		pass := func() {
			for j := range rows {
				if err := e.Update("R", rows[j], mults[j]); err != nil {
					b.Fatal(err)
				}
			}
			for j := range inv {
				if err := e.Update("R", inv[j], invMults[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		pass()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
	})
	b.Run("batch", func(b *testing.B) {
		rng := rand.New(rand.NewSource(41))
		e := newEngine(b, rng)
		rows, mults, inv, invMults := makeBatch(rng)
		ops, invOps := relOps("R", rows, mults), relOps("R", inv, invMults)
		pass := func() {
			if err := e.CommitBatch(ops); err != nil {
				b.Fatal(err)
			}
			if err := e.CommitBatch(invOps); err != nil {
				b.Fatal(err)
			}
		}
		pass()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
	})
}

// BenchmarkBatchCrossing measures commits that cross a major-rebalance
// trigger: one op = the 500-op commits that grow two-path at ε = ½ from the
// built N₀ past M = 2N₀ + 1 — one doubling — and shrink it back below a
// quarter of the new M — one halving —, each crossing commit ending in a
// refill of every view. Every op starts from the same engine, built off the
// clock, so its commits repeat exactly: view-writes/op, the view rows their
// propagation writes (Stats.ViewDeltas; a refill's are not counted), reads
// the same at any -benchtime, and the CI bench gate pins it like allocs/op.
// An op leaves megabytes of garbage, the engine it dropped; collecting it on
// the clock would add the runtime's few allocations per GC cycle to
// allocs/op, so the collector runs only between ops, off the clock.
func BenchmarkBatchCrossing(b *testing.B) {
	const batch = 500
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	rng := rand.New(rand.NewSource(43))
	db := workload.TwoPath(rng, benchN/2, 1.15)
	n0 := db["R"].Size() + db["S"].Size()
	// Growth: fresh rows, R and S in turn, B from the data's own
	// distribution, whole batches of them until N reaches M. Shrinking: the
	// same rows deleted, then one batch of the built R rows.
	zb := workload.NewZipf(rng, 1.15, benchN/2)
	var grow, shrink []core.BatchOp
	for i := 0; len(grow) <= n0 || len(grow)%batch != 0; i++ {
		v := int64(1_000_000 + i)
		op := core.BatchOp{Rel: "R", Row: tuple.Tuple{v, zb.Draw()}, Mult: 1}
		if i%2 == 1 {
			op = core.BatchOp{Rel: "S", Row: tuple.Tuple{zb.Draw(), v}, Mult: 1}
		}
		grow = append(grow, op)
	}
	for _, op := range grow {
		shrink = append(shrink, core.BatchOp{Rel: op.Rel, Row: op.Row, Mult: -1})
	}
	for id := db["R"].First(); len(shrink)%batch != 0 || len(shrink) == len(grow); id = db["R"].Next(id) {
		t, _ := db["R"].At(id)
		shrink = append(shrink, core.BatchOp{Rel: "R", Row: t, Mult: -1})
	}
	ops := append(grow, shrink...)
	var writes int64
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		e, err := core.New(q, core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		if err := core.Preprocess(e, db); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 0; j < len(ops); j += batch {
			if err := e.CommitBatch(ops[j : j+batch]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := e.Stats(); st.MajorRebalances != 2 || e.N() != n0-batch {
			b.Fatalf("%d major rebalances ending at N = %d, want 2 ending at %d", st.MajorRebalances, e.N(), n0-batch)
		} else {
			writes += st.ViewDeltas
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(writes)/float64(b.N), "view-writes/op")
}

// relOps is the op list applying {rows[i] → mults[i]} to the one relation
// rel.
func relOps(rel string, rows []tuple.Tuple, mults []int64) []core.BatchOp {
	ops := make([]core.BatchOp, len(rows))
	for i := range rows {
		ops[i] = core.BatchOp{Rel: rel, Row: rows[i], Mult: mults[i]}
	}
	return ops
}

// BenchmarkFig1Delay measures the enumeration delay of Figure 1 (left):
// one op = producing one distinct result tuple (expected O(N^(1−ε))).
func BenchmarkFig1Delay(b *testing.B) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	for _, eps := range []float64{0, 0.5, 1} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			n := benchN
			if eps == 1 {
				n = benchN / 4
			}
			sys := mustIVM(b, q, eps, twoPathDB(n))
			b.ResetTimer()
			produced := 0
			for produced < b.N {
				sys.Enumerate(func(t tuple.Tuple, m int64) bool {
					produced++
					return produced < b.N
				})
			}
		})
	}
}

// BenchmarkFig2Classify measures the query classification of Figure 2's
// landscape: one op = classifying the full query catalog (hierarchical,
// q-hierarchical, free-connex, widths).
func BenchmarkFig2Classify(b *testing.B) {
	catalog := []*query.Query{
		query.MustParse("Q(A, B) = R(A, B), S(B)"),
		query.MustParse("Q(A) = R(A, B), S(B)"),
		query.MustParse("Q(A, C) = R(A, B), S(B, C)"),
		query.MustParse("Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)"),
		query.MustParse("Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)"),
		query.MustParse("Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range catalog {
			_ = query.Classify(q)
		}
	}
}

// BenchmarkFig3OMvRound measures one OMv round (Appendix B.8 / Figure 3's
// Pareto point): n vector updates plus a full enumeration of
// Q(A) = R(A,B), S(B) at ε = 1/2.
func BenchmarkFig3OMvRound(b *testing.B) {
	const mn = 96
	inst := workload.NewOMvInstance(rand.New(rand.NewSource(3)), mn, 0.4)
	q := query.MustParse("Q(A) = R(A, B), S(B)")
	sys := mustIVM(b, q, 0.5, inst.Matrix)
	var prev []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec := inst.Rounds[i%len(inst.Rounds)]
		for _, v := range prev {
			if err := sys.Update("S", tuple.Tuple{v}, -1); err != nil {
				b.Fatal(err)
			}
		}
		for _, v := range vec {
			if err := sys.Update("S", tuple.Tuple{v}, 1); err != nil {
				b.Fatal(err)
			}
		}
		prev = vec
		sys.Enumerate(func(t tuple.Tuple, m int64) bool { return true })
	}
}

// BenchmarkFig4StaticRows measures the static landscape rows of Figure 4 as
// preprocessing ops at the ε that recovers each row.
func BenchmarkFig4StaticRows(b *testing.B) {
	rows := []struct {
		name string
		q    string
		eps  float64
		gen  func() naive.Database
	}{
		{"alpha-acyclic-eps0", "Q(A, C) = R(A, B), S(B, C)", 0,
			func() naive.Database { return twoPathDB(benchN) }},
		{"full-cq-eps1", "Q(A, C) = R(A, B), S(B, C)", 1,
			func() naive.Database { return twoPathDB(benchN / 4) }},
		{"free-connex", "Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)", 1,
			func() naive.Database { return workload.FreeConnex18(rand.New(rand.NewSource(4)), benchN) }},
		{"bounded-degree", "Q(A, C) = R(A, B), S(B, C)", 1,
			func() naive.Database { return workload.BoundedDegree(rand.New(rand.NewSource(5)), benchN, 8) }},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			q := query.MustParse(row.q)
			db := row.gen()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := baseline.NewIVMEpsStatic(q, row.eps)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Preprocess(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5DynamicRows measures the dynamic landscape of Figure 5: one
// op = one single-tuple update, for our engine and for the prior-work
// baselines on the same non-q-hierarchical query.
func BenchmarkFig5DynamicRows(b *testing.B) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	build := map[string]func() baseline.System{
		"ivm-eps-0.5": func() baseline.System { s, _ := baseline.NewIVMEps(q, 0.5); return s },
		"fo-ivm":      func() baseline.System { s, _ := baseline.NewFirstOrderIVM(q); return s },
		"plain-tree":  func() baseline.System { s, _ := baseline.NewPlainTree(q); return s },
		"recompute":   func() baseline.System { return baseline.NewRecompute(q) },
	}
	for _, name := range []string{"ivm-eps-0.5", "fo-ivm", "plain-tree", "recompute"} {
		b.Run(name+"/update", func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			db := workload.TwoPath(rng, benchN, 1.15)
			sys := build[name]()
			if err := sys.Preprocess(db.Clone()); err != nil {
				b.Fatal(err)
			}
			stream := workload.UpdateStream(rng, q, db, 4096, 0)
			b.ResetTimer()
			replayStream(b, sys, stream)
		})
	}
	// The q-hierarchical row: constant-time updates at ε=1.
	b.Run("q-hierarchical/update", func(b *testing.B) {
		qh := query.MustParse("Q(A, B) = R(A, B), S(B)")
		rng := rand.New(rand.NewSource(7))
		db := workload.TwoPathUnary(rng, benchN, 1.1)
		sys := mustIVM(b, qh, 1, db.Clone())
		stream := workload.UpdateStream(rng, qh, db, 4096, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := stream[i%len(stream)]
			mult := u.Mult
			if i >= len(stream) && i/len(stream)%2 == 1 {
				mult = -mult
			}
			if err := sys.Update(u.Rel, u.Tuple, mult); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExample18FreeConnex measures Example 18 (Figure 9): one op = one
// result tuple at constant delay after linear preprocessing.
func BenchmarkExample18FreeConnex(b *testing.B) {
	q := query.MustParse("Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)")
	sys := mustIVM(b, q, 0.5, workload.FreeConnex18(rand.New(rand.NewSource(8)), benchN))
	b.ResetTimer()
	produced := 0
	for produced < b.N {
		sys.Enumerate(func(t tuple.Tuple, m int64) bool {
			produced++
			return produced < b.N
		})
	}
}

// BenchmarkExample19Update measures Example 19/24's maintenance (w=3, δ=3,
// three view trees, two indicator triples): one op = one update.
func BenchmarkExample19Update(b *testing.B) {
	q := query.MustParse("Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)")
	rng := rand.New(rand.NewSource(9))
	db := workload.Star19(rng, benchN/2, 1.3)
	sys := mustIVM(b, q, 0.3, db.Clone())
	stream := workload.UpdateStream(rng, q, db, 4096, 0)
	b.ResetTimer()
	replayStream(b, sys, stream)
}

// BenchmarkExample28MatMul measures Example 28: one op = one full matrix
// product via preprocessing at ε = 1/2 (O(N^(3/2)) = O(n³)).
func BenchmarkExample28MatMul(b *testing.B) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	db := workload.Matrix(rand.New(rand.NewSource(10)), 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := baseline.NewIVMEpsStatic(q, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Preprocess(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExample29Update measures Example 29's maintenance at ε = 1/2:
// one op = one update to R or S of Q(A) = R(A, B), S(B).
func BenchmarkExample29Update(b *testing.B) {
	q := query.MustParse("Q(A) = R(A, B), S(B)")
	rng := rand.New(rand.NewSource(11))
	db := workload.TwoPathUnary(rng, benchN, 1.2)
	sys := mustIVM(b, q, 0.5, db.Clone())
	stream := workload.UpdateStream(rng, q, db, 4096, 0)
	b.ResetTimer()
	replayStream(b, sys, stream)
}

// BenchmarkRebalancingChurn measures Section 6.2's amortization: one op =
// one update from a high-churn stream (50% deletes) whose cost includes any
// minor/major rebalancing it triggers.
func BenchmarkRebalancingChurn(b *testing.B) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	rng := rand.New(rand.NewSource(12))
	db := workload.TwoPath(rng, benchN, 1.15)
	sys := mustIVM(b, q, 0.5, db.Clone())
	stream := workload.UpdateStream(rng, q, db, 8192, 0)
	b.ResetTimer()
	replayStream(b, sys, stream)
}

// BenchmarkExperimentQuick smoke-runs each experiment harness end to end
// (the artifact-generation path used by cmd/hiqbench).
func BenchmarkExperimentQuick(b *testing.B) {
	for _, id := range []string{"fig2", "ex28"} {
		exp := experiments.Find(id)
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = exp.Run(experiments.Config{Quick: true, Seed: 2020})
			}
		})
	}
}

// BenchmarkAblationAuxViews quantifies Figure 8's auxiliary views: one op =
// one single-tuple update, with and without the aux views (Lemma 47's
// constant-time sibling lookups vs sibling-subtree scans).
func BenchmarkAblationAuxViews(b *testing.B) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	for _, noAux := range []bool{false, true} {
		name := "with-aux"
		if noAux {
			name = "no-aux"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(21))
			db := workload.TwoPath(rng, benchN, 1.15)
			e, err := core.New(q, core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5, NoAuxViews: noAux})
			if err != nil {
				b.Fatal(err)
			}
			if err := core.Preprocess(e, db.Clone()); err != nil {
				b.Fatal(err)
			}
			stream := workload.UpdateStream(rng, q, db, 4096, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := stream[i%len(stream)]
				mult := u.Mult
				if (i/len(stream))%2 == 1 {
					mult = -mult
				}
				if err := e.Update(u.Rel, u.Tuple, mult); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPushdown quantifies the InsideOut aggregation pushdown
// behind Proposition 21: one op = one ε=0 preprocessing, with pushdown
// (linear) vs flat child joins (output-sized).
func BenchmarkAblationPushdown(b *testing.B) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	for _, noPush := range []bool{false, true} {
		name := "pushdown"
		if noPush {
			name = "flat-join"
		}
		b.Run(name, func(b *testing.B) {
			db := twoPathDB(benchN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := core.New(q, core.Options{Mode: viewtree.Static, Epsilon: 0, NoPushdown: noPush})
				if err != nil {
					b.Fatal(err)
				}
				if err := core.Preprocess(e, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// multiTreeQuery is the five-relation query whose skew-aware forest spans
// five main view trees plus three indicator tree pairs, so a batch fans out
// over many trees.
var multiTreeQuery = query.MustParse("Q(C, E) = R(A), S(A, B), T(A, B, C), U(A, D), V(A, D, E)")

// twoAtomQuery is the smallest query whose shard key is a bound root: A
// occurs in both atoms and is not free.
var twoAtomQuery = query.MustParse("Q(B, C) = R(A, B), S(A, C)")

// multiTreeDB draws n tuples per relation of multiTreeQuery, with the shared
// A skewed enough to split.
func multiTreeDB(rng *rand.Rand, n int) naive.Database {
	return skewedDB(rng, multiTreeQuery, n)
}

// skewedDB draws n tuples per relation of q, the first column from n/8
// values and the others from n.
func skewedDB(rng *rand.Rand, q *query.Query, n int) naive.Database {
	db := naive.Database{}
	for _, a := range q.Atoms {
		if _, ok := db[a.Rel]; ok {
			continue
		}
		r := relation.New(a.Rel, a.Vars)
		for i := 0; i < n; i++ {
			t := make(tuple.Tuple, len(a.Vars))
			t[0] = rng.Int63n(int64(n) / 8)
			for j := 1; j < len(t); j++ {
				t[j] = rng.Int63n(int64(n))
			}
			r.Set(t, 1)
		}
		db[a.Rel] = r
	}
	return db
}

// mixedStream builds an ingest stream of 3000 ops per relation of rels
// (relations of q whose first column is the shared A), round-robin — every
// op switches relations, the worst case for a commit's relation resolution
// — and its inverse, the stream reversed with negated multiplicities. Each
// relation draws from a pool of 2000 tuples whose i-th entries share A.
func mixedStream(rng *rand.Rand, q *query.Query, rels ...string) (ops, inv []core.BatchOp) {
	const opsPerRel, poolSize = 3000, 2000
	pools := make([][]tuple.Tuple, len(rels))
	for r, rel := range rels {
		a := q.Atoms[slices.IndexFunc(q.Atoms, func(a query.Atom) bool { return a.Rel == rel })]
		pools[r] = make([]tuple.Tuple, poolSize)
		for i := range pools[r] {
			pools[r][i] = make(tuple.Tuple, len(a.Vars))
		}
	}
	for i := 0; i < poolSize; i++ {
		a := rng.Int63n(benchN / 8)
		for r, pool := range pools {
			t := pool[i]
			t[0] = a
			for j := 1; j < len(t)-1; j++ {
				t[j] = rng.Int63n(benchN)
			}
			t[len(t)-1] = int64(r+1)*1_000_000 + int64(i)
		}
	}
	ops = make([]core.BatchOp, 0, len(rels)*opsPerRel)
	for i := 0; i < opsPerRel; i++ {
		for r, rel := range rels {
			ops = append(ops, core.BatchOp{Rel: rel, Row: pools[r][rng.Intn(poolSize)], Mult: 1})
		}
	}
	inv = make([]core.BatchOp, len(ops))
	for i, op := range ops {
		inv[len(inv)-1-i] = core.BatchOp{Rel: op.Rel, Row: op.Row, Mult: -1}
	}
	return ops, inv
}

// BenchmarkMultiTreeBatch measures the batch path across many view trees:
// one op = applying a 10k-row batch to T and then its inverse, on
// multiTreeQuery, where every T row reaches several trees. Two warm-up
// passes outside the timer grow the aggregation maps and delta pools, so
// allocs/op is the steady state, pinned at 0 by the CI bench gate.
func BenchmarkMultiTreeBatch(b *testing.B) {
	const batchRows = 10000
	rng := rand.New(rand.NewSource(61))
	e, err := core.New(multiTreeQuery, core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	if err := core.Preprocess(e, multiTreeDB(rng, benchN)); err != nil {
		b.Fatal(err)
	}
	rows := make([]tuple.Tuple, batchRows)
	mults := make([]int64, batchRows)
	inv := make([]tuple.Tuple, batchRows)
	invMults := make([]int64, batchRows)
	pool := make([]tuple.Tuple, 4000)
	for i := range pool {
		pool[i] = tuple.Tuple{rng.Int63n(benchN / 8), rng.Int63n(400), 1_000_000 + int64(i)}
	}
	for i := range rows {
		rows[i] = pool[rng.Intn(len(pool))]
		mults[i] = 1
		inv[len(inv)-1-i] = rows[i]
		invMults[len(inv)-1-i] = -1
	}
	ops, invOps := relOps("T", rows, mults), relOps("T", inv, invMults)
	cycle := func() {
		if err := e.CommitBatch(ops); err != nil {
			b.Fatal(err)
		}
		if err := e.CommitBatch(invOps); err != nil {
			b.Fatal(err)
		}
	}
	cycle()
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkMultiRelationBatch measures the multi-relation commit path on
// mixedStream. One op here is one queued single-tuple update; each
// iteration commits the 9000-op batch and its inverse (keeping the database
// bounded), as one CommitBatch each. Compare against
// BenchmarkBatchVsSequential/sequential for the per-op win over row-by-row
// Update; allocs/op is pinned at 0 by the CI bench gate.
func BenchmarkMultiRelationBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(83))
	e, err := core.New(multiTreeQuery, core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	if err := core.Preprocess(e, multiTreeDB(rng, benchN)); err != nil {
		b.Fatal(err)
	}
	ops, inv := mixedStream(rng, multiTreeQuery, "S", "T", "V")
	cycle := func() {
		if err := e.CommitBatch(ops); err != nil {
			b.Fatal(err)
		}
		if err := e.CommitBatch(inv); err != nil {
			b.Fatal(err)
		}
	}
	// Warm up outside the timer: size the scratch to steady state.
	cycle()
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// fedPreprocess loads db into f row by row through LoadRows and
// preprocesses f.
func fedPreprocess(f *federation.Fed, db naive.Database) error {
	for name, src := range db {
		for id := src.First(); id != relation.End; id = src.Next(id) {
			t, m := src.At(id)
			if err := f.LoadRows(name, t, []int64{m}); err != nil {
				return err
			}
		}
	}
	return f.Preprocess(nil)
}

// BenchmarkShardedCommit measures the federated multi-relation commit path
// on the same mixedStream as BenchmarkMultiRelationBatch: each iteration
// commits the 9000-op batch and its inverse through a K-shard federation
// (scatter, per-shard two-phase prepare/apply, federation epoch). K=1
// isolates the federation overhead over a single engine's CommitBatch — the
// scatter pass and one extra indirection — and is held within 10% of
// BenchmarkMultiRelationBatch by the CI bench tolerance; K>1 shows the
// cross-shard path (on a multi-core host the prepared shards apply in
// parallel). two-atom runs the same cycle on a 6000-op stream over both
// relations of twoAtomQuery, whose shard key is its bound root A, as the
// multi-tree query's is. allocs/op is pinned at 0 by the CI bench gate.
func BenchmarkShardedCommit(b *testing.B) {
	cases := []struct {
		name   string
		q      *query.Query
		rels   []string
		shards []int
	}{
		{"", multiTreeQuery, []string{"S", "T", "V"}, []int{1, 2, 4}},
		{"two-atom/", twoAtomQuery, []string{"R", "S"}, []int{2, 4}},
	}
	for _, c := range cases {
		for _, k := range c.shards {
			b.Run(fmt.Sprintf("%sK=%d", c.name, k), func(b *testing.B) {
				rng := rand.New(rand.NewSource(83))
				f, err := federation.New(c.q, federation.Options{
					Shards: k,
					Engine: core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				if err := fedPreprocess(f, skewedDB(rng, c.q, benchN)); err != nil {
					b.Fatal(err)
				}
				ops, inv := mixedStream(rng, c.q, c.rels...)
				cycle := func() {
					if err := f.CommitBatch(ops); err != nil {
						b.Fatal(err)
					}
					if err := f.CommitBatch(inv); err != nil {
						b.Fatal(err)
					}
				}
				// Warm up outside the timer: spawn the apply runners, size
				// the pooled sub-batches and every shard's scratch to
				// steady state.
				cycle()
				cycle()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
			})
		}
	}
}

// BenchmarkShardedEnumerate measures the federated gather: one op is one
// full enumeration of the result across K shard snapshots, after a first
// pass has opened the iterators the snapshot keeps. gather=concat streams a
// free-shard-key query's shards back to back; gather=aggregate unions a
// bound-shard-key query's overlapping shard streams, looking each tuple up
// on the other shards to sum its multiplicity. Neither allocates once warm:
// the snapshot reuses its K shard iterators and their trees.
func BenchmarkShardedEnumerate(b *testing.B) {
	cases := []struct {
		name string
		q    string
	}{
		{"gather=concat", "Q(A, B, C) = R(A, B), S(A, C)"},
		{"gather=aggregate", "Q(B, C) = R(A, B), S(A, C)"},
	}
	for _, c := range cases {
		q := query.MustParse(c.q)
		for _, k := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/K=%d", c.name, k), func(b *testing.B) {
				rng := rand.New(rand.NewSource(29))
				f, err := federation.New(q, federation.Options{
					Shards: k,
					Engine: core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				if err := fedPreprocess(f, skewedDB(rng, q, benchN)); err != nil {
					b.Fatal(err)
				}
				var s federation.Snapshot
				f.SnapshotInto(&s)
				defer s.Close()
				pass := func() {
					n := 0
					s.Enumerate(func(t tuple.Tuple, m int64) bool { n++; return true })
					if n == 0 {
						b.Fatal("empty result")
					}
				}
				pass()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
			})
		}
	}
}

// BenchmarkEnumerate measures the read side per ε the way
// BenchmarkUpdateSteadyState measures the write side: one op = one pass over
// Engine.All, capped at 20 000 rows, on a built engine that has been
// enumerated once. allocs/op is the gate (BENCH_enum.json, `make
// bench-enum`): a pass allocates the closures of the range loop — the same
// few objects at every ε, since the implicit snapshot lives on the stack and
// the iterator tree, one instance per heavy key, is reused from the previous
// pass — and nothing per row. The two-path-new-epoch case commits one Apply
// before each pass, so every pass reads at a new epoch: its capture re-pins
// the frozen handles of the context the last pass freed and allocates no
// more than a pass at a held epoch. gap-ops, the largest number of Work ops
// between two rows of a pass, the open included (Engine.GapOps), is the
// delay side's count, gated like allocs/op: a lookup that costs more ops
// than it did shows there.
func BenchmarkEnumerate(b *testing.B) {
	const rowCap = 20000
	// domains bound each variable's values; unlisted variables range over
	// benchN, so the listed ones are the join keys that set the fan-out.
	cases := []struct {
		name, q string
		domains map[string]int64
		commit  bool // one Apply before every pass
	}{
		{"two-path", "Q(A, C) = R(A, B), S(B, C)", nil, false}, // Zipf-skewed B: twoPathDB
		{"q-hierarchical", "Q(A, B, C) = R(A, B), S(A, C)", map[string]int64{"A": benchN / 8}, false},
		{"free-connex", "Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)", map[string]int64{"A": 50, "B": 10}, false},
		{"two-path-new-epoch", "Q(A, C) = R(A, B), S(B, C)", nil, true},
	}
	for _, c := range cases {
		q := ivmeps.MustParseQuery(c.q)
		for _, eps := range []float64{0, 0.5, 1} {
			b.Run(fmt.Sprintf("%s/eps=%.2f", c.name, eps), func(b *testing.B) {
				e, err := ivmeps.New(q, ivmeps.Options{Epsilon: eps})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				rng := rand.New(rand.NewSource(31))
				var row []int64 // a row of R, toggled by the new-epoch case's Apply
				if c.domains == nil {
					for rel, r := range twoPathDB(benchN) {
						r.ForEach(func(t tuple.Tuple, _ int64) {
							if err := e.Load(rel, t); err != nil {
								b.Fatal(err)
							}
							if rel == "R" && row == nil {
								row = t.Clone()
							}
						})
					}
				} else {
					for _, rel := range q.Relations() {
						schema := q.Schema(rel)
						for i := 0; i < benchN; i++ {
							row := make([]int64, len(schema))
							for j, v := range schema {
								dom := int64(benchN)
								if d, ok := c.domains[v]; ok {
									dom = d
								}
								row[j] = rng.Int63n(dom)
							}
							if err := e.Load(rel, row); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				if err := e.Build(); err != nil {
					b.Fatal(err)
				}
				sign := int64(1)
				pass := func() (rows int) {
					if c.commit {
						if err := e.Apply("R", row, sign); err != nil { // +1, −1, …: the state cycles
							b.Fatal(err)
						}
						sign = -sign
					}
					for range e.All() {
						if rows++; rows >= rowCap {
							break
						}
					}
					return rows
				}
				rows := pass()
				if rows == 0 {
					b.Fatal("empty result")
				}
				pass() // and again, so the timer starts after an Apply of each sign
				gap := e.GapOps(rowCap)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
				b.ReportMetric(float64(rows), "rows/op")
				b.ReportMetric(float64(gap), "gap-ops")
			})
		}
	}
}

// buildCases are the engines of BenchmarkBuild and BenchmarkMajorRebalance:
// the two-path query, whose skew-aware forest joins light parts, and the
// q-hierarchical star query over the same two relations, whose views are all
// single-child aggregates — once more durable, under SyncAlways, for Build's
// initial checkpoint, written beside the materialization.
var buildCases = []struct {
	name, q string
	opts    ivmeps.Options
	durable bool
}{
	{"two-path/eps=0.00", "Q(A, C) = R(A, B), S(B, C)", ivmeps.Options{Epsilon: 0}, false},
	{"two-path/eps=0.50", "Q(A, C) = R(A, B), S(B, C)", ivmeps.Options{Epsilon: 0.5}, false},
	{"two-path/eps=1.00", "Q(A, C) = R(A, B), S(B, C)", ivmeps.Options{Epsilon: 1}, false},
	{"two-path/static/eps=0.50", "Q(A, C) = R(A, B), S(B, C)", ivmeps.Options{Epsilon: 0.5, Static: true}, false},
	{"star/eps=0.50", "Q(A, B, C) = R(A, B), S(A, C)", ivmeps.Options{Epsilon: 0.5}, false},
	{"star/eps=0.50/durable", "Q(A, B, C) = R(A, B), S(A, C)", ivmeps.Options{Epsilon: 0.5}, true},
}

// loadAndBuild is one preprocessing through the public surface: New, Load of
// every row, Build.
func loadAndBuild(b *testing.B, q *ivmeps.Query, opts ivmeps.Options, rows map[string][][]int64) *ivmeps.Engine {
	b.Helper()
	e, err := ivmeps.New(q, opts)
	if err != nil {
		b.Fatal(err)
	}
	for rel, rs := range rows {
		for _, r := range rs {
			if err := e.Load(rel, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Build(); err != nil {
		b.Fatal(err)
	}
	return e
}

// twoPathRows is twoPathDB(n) as the rows Load takes.
func twoPathRows(n int) map[string][][]int64 {
	rows := map[string][][]int64{}
	for rel, r := range twoPathDB(n) {
		r.ForEach(func(t tuple.Tuple, _ int64) { rows[rel] = append(rows[rel], t.Clone()) })
	}
	return rows
}

// BenchmarkBuild is the preprocessing side of the trade-off (Proposition 21),
// recorded in BENCH_build.json (`make bench-build`): one op = Load + Build of
// the |R| = |S| = 5·benchN Zipf database, a quarter of that at ε = 1 where the
// light join is the full one. Its allocs/op count the columns and probe
// arrays the relations allocate as they grow, and footprint-B is the bytes
// the built engine's relations hold (the paper's space side); both are
// deterministic at the fixed seed. A durable case's log directory is emptied
// between ops, off the clock.
func BenchmarkBuild(b *testing.B) {
	for _, c := range buildCases {
		b.Run(c.name, func(b *testing.B) {
			n := 5 * benchN
			if c.opts.Epsilon == 1 {
				n /= 4
			}
			q, rows, opts := ivmeps.MustParseQuery(c.q), twoPathRows(n), c.opts
			if c.durable {
				opts.Durability = ivmeps.Durability{Dir: filepath.Join(b.TempDir(), "log"), Sync: ivmeps.SyncAlways}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var e *ivmeps.Engine
			for i := 0; i < b.N; i++ {
				e = loadAndBuild(b, q, opts, rows)
				if err := e.Close(); err != nil {
					b.Fatal(err)
				}
				if c.durable {
					b.StopTimer()
					if err := os.RemoveAll(opts.Durability.Dir); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(e.Footprint()), "footprint-B")
		})
	}
}

// BenchmarkLoad is what loading costs a caller that streams its rows one at
// a time: one op = New and a one-row Load of every row of BenchmarkBuild's
// star case, with no Build. ns/row is the op's time over its rows; allocs/op
// count the base columns' growth.
func BenchmarkLoad(b *testing.B) {
	c := buildCases[4] // star/eps=0.50
	q, rows := ivmeps.MustParseQuery(c.q), twoPathRows(5*benchN)
	n := 0
	for _, rs := range rows {
		n += len(rs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := ivmeps.New(q, c.opts)
		if err != nil {
			b.Fatal(err)
		}
		for rel, rs := range rows {
			for _, r := range rs {
				if err := e.Load(rel, r); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// BenchmarkMajorRebalance is what Proposition 25 amortizes: one op = one
// forced major rebalance of a built engine over |R| = |S| = 5·benchN, in
// steady state — every table already has its size, so a rebalance refills in
// place and allocates nothing.
func BenchmarkMajorRebalance(b *testing.B) {
	for _, c := range buildCases {
		if c.opts.Static || c.opts.Epsilon != 0.5 || c.durable {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			e := loadAndBuild(b, ivmeps.MustParseQuery(c.q), c.opts, twoPathRows(5*benchN))
			defer e.Close()
			e.MajorRebalance()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.MajorRebalance()
			}
		})
	}
}

// BenchmarkOpen is the restart side of preprocessing, recorded in
// BENCH_build.json: one op = Open of a durable engine over BenchmarkBuild's
// star case from its initial checkpoint, with an empty log tail — read and
// decode the checkpoint, load each relation's rows, Build — and Close. Its
// allocs/op count the decoder's arenas and the columns and tables Build
// grows, none of them per row.
func BenchmarkOpen(b *testing.B) {
	c := buildCases[4] // star/eps=0.50
	q, opts := ivmeps.MustParseQuery(c.q), c.opts
	opts.Durability = ivmeps.Durability{Dir: filepath.Join(b.TempDir(), "log")}
	if err := loadAndBuild(b, q, opts, twoPathRows(5*benchN)).Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := ivmeps.Open(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotFirstWrite is what a held snapshot costs the writer: one
// op = Snapshot, one Apply — its first write to each relation it touches
// detaches that relation's pinned store — and Close, on the built two-path
// ε = 0.5 engine of BenchmarkMajorRebalance. A detach copies a fixed number
// of flat columns per relation, so allocs/op do not grow with |R|.
func BenchmarkSnapshotFirstWrite(b *testing.B) {
	c := buildCases[1]
	rows := twoPathRows(5 * benchN)
	e := loadAndBuild(b, ivmeps.MustParseQuery(c.q), c.opts, rows)
	defer e.Close()
	row := rows["R"][0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := e.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Apply("R", row, 1-2*int64(i%2)); err != nil { // +1, −1, …: the state cycles
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkWatchFanout measures what watch fan-out adds to the steady-state
// commit path, on the same warmed Reset/refill/Commit cycle as the other
// commit benchmarks (an insert batch then its inverse, 16 rows per relation
// each). subs=0 is the acceptance baseline: a watcher existed and was
// closed, so capture is disarmed and the commit path must be back to its
// zero-overhead state — allocs/op is pinned at 0 by the CI bench gate. For
// subs>0 every consumer runs in lockstep with the committer (one ack per
// delivered event before the next commit), so the in-flight record count,
// the freelist behavior, and therefore allocs/op are deterministic rather
// than scheduling-dependent: the per-commit record and every conversion
// arena are reused, and the fan-out itself is allocation-free.
func BenchmarkWatchFanout(b *testing.B) {
	pub := ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	for _, subs := range []int{0, 1, 8, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			e, err := ivmeps.New(pub, ivmeps.Options{Epsilon: 0.5})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			rng := rand.New(rand.NewSource(53))
			for i := 0; i < benchN; i++ {
				if err := e.Load("R", []int64{rng.Int63n(benchN), rng.Int63n(64)}); err != nil {
					b.Fatal(err)
				}
				if err := e.Load("S", []int64{rng.Int63n(64), rng.Int63n(benchN)}); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Build(); err != nil {
				b.Fatal(err)
			}

			var wg sync.WaitGroup
			acks := make([]chan struct{}, subs)
			watchers := make([]*ivmeps.Watcher, subs)
			for i := range watchers {
				w, err := e.Watch(ivmeps.WatchOptions{Buffer: 8})
				if err != nil {
					b.Fatal(err)
				}
				w.Snapshot().Close() // no live snapshot during the measured loop
				watchers[i] = w
				acks[i] = make(chan struct{}, 1)
				wg.Add(1)
				go func(w *ivmeps.Watcher, ack chan<- struct{}) {
					defer wg.Done()
					for _, err := range w.Events() {
						if err != nil {
							b.Error(err)
							return
						}
						ack <- struct{}{}
					}
				}(w, acks[i])
			}
			if subs == 0 {
				// The baseline case still arms and disarms capture once, so
				// it measures the true "watchers came and went" state.
				w, err := e.Watch(ivmeps.WatchOptions{})
				if err != nil {
					b.Fatal(err)
				}
				w.Close()
			}

			const rowsPerRel = 16
			var rRows, sRows [][]int64
			for i := int64(0); i < rowsPerRel; i++ {
				rRows = append(rRows, []int64{benchN + i, i % 4})
				sRows = append(sRows, []int64{i % 4, 2*benchN + i})
			}
			batch := e.NewBatch()
			fill := func(mult int64) {
				batch.Reset()
				for i := range rRows {
					batch.Apply("R", rRows[i], mult)
					batch.Apply("S", sRows[i], mult)
				}
			}
			commit := func() {
				if err := e.Commit(batch); err != nil {
					b.Fatal(err)
				}
				for i := range acks {
					<-acks[i]
				}
			}
			cycle := func() {
				fill(1)
				commit()
				fill(-1)
				commit()
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			for _, w := range watchers {
				w.Close()
			}
			wg.Wait()
		})
	}
}

// BenchmarkCommitWithWAL measures what the write-ahead log adds to the
// steady-state commit path at each fsync policy, on the same warmed
// Reset/refill/Commit cycle as the in-memory benchmarks: an insert batch
// then its inverse, 16 rows per relation each. sync=none is the
// no-durability baseline (the hook is nil and the commit path pays one
// nil-check); off/batched/always map to the SyncMode values. allocs/op is
// pinned at 0 for every mode by the CI bench gate — the record encoder,
// the op re-framing, and the segment writer all run from pooled buffers.
// SegmentBytes is set high enough that rotation never fires inside the
// measured loop; ns/op for sync=always is dominated by fsync latency and
// is advisory only.
func BenchmarkCommitWithWAL(b *testing.B) {
	pub := ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	for _, mode := range []string{"none", "off", "batched", "always"} {
		b.Run("sync="+mode, func(b *testing.B) {
			opts := ivmeps.Options{Epsilon: 0.5}
			if mode != "none" {
				sm := map[string]ivmeps.SyncMode{
					"off": ivmeps.SyncOff, "batched": ivmeps.SyncBatched, "always": ivmeps.SyncAlways,
				}[mode]
				opts.Durability = ivmeps.Durability{
					Dir: filepath.Join(b.TempDir(), "log"), Sync: sm, SegmentBytes: 1 << 30,
				}
			}
			e, err := ivmeps.New(pub, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			rng := rand.New(rand.NewSource(29))
			for i := 0; i < benchN; i++ {
				if err := e.Load("R", []int64{rng.Int63n(benchN), rng.Int63n(64)}); err != nil {
					b.Fatal(err)
				}
				if err := e.Load("S", []int64{rng.Int63n(64), rng.Int63n(benchN)}); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Build(); err != nil {
				b.Fatal(err)
			}
			const rowsPerRel = 16
			var rRows, sRows [][]int64
			for i := int64(0); i < rowsPerRel; i++ {
				rRows = append(rRows, []int64{benchN + i, i % 4})
				sRows = append(sRows, []int64{i % 4, 2*benchN + i})
			}
			batch := e.NewBatch()
			fill := func(mult int64) {
				batch.Reset()
				for i := range rRows {
					batch.Apply("R", rRows[i], mult)
					batch.Apply("S", sRows[i], mult)
				}
			}
			cycle := func() {
				fill(1)
				if err := e.Commit(batch); err != nil {
					b.Fatal(err)
				}
				fill(-1)
				if err := e.Commit(batch); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
