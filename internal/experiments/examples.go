package experiments

import (
	"ivmeps/internal/benchutil"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/workload"
)

// Ex18FreeConnex measures Example 18's free-connex query: linear
// preprocessing and constant delay at every ε, constant-delay enumeration
// from the single BuildVT tree (Figure 9).
func Ex18FreeConnex(cfg Config) *Result {
	q := query.MustParse("Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)")
	res := &Result{ID: "ex18", Title: "Example 18: " + q.String() + " (free-connex, w=1, δ=1)"}
	warmup(q)
	sizes := pick(cfg.Quick, []int{1000, 2000, 4000, 8000}, []int{2000, 4000, 8000, 16000, 32000})
	t := benchutil.NewTable("N", "preprocess", "delay p99", "ops/tuple p99", "per-update (dyn)")
	var ns, preps, delays []float64
	for _, n := range sizes {
		r := rng(cfg, int64(n))
		db := workload.FreeConnex18(r, n)
		sys, prep := buildAt(q, 0.5, db.Clone(), true)
		st := benchutil.MeasureDelay(sys, enumLimit)
		ops := delayOpsP99(sys, enumLimit)

		dsys, _ := buildAt(q, 0.5, db, false)
		count := 400
		if cfg.Quick {
			count = 150
		}
		per := applyStream(dsys, workload.UpdateStream(r, q, db, count, 0.3))

		t.Add(sys.Engine().N(), prep, st.P99, ops, per)
		ns = append(ns, float64(sys.Engine().N()))
		preps = append(preps, prep.Seconds())
		delays = append(delays, float64(ops))
	}
	fits := benchutil.NewTable("preproc slope", "paper preproc (w=1)", "delay slope (ops p99)", "paper delay")
	fits.Add(benchutil.FitSlope(ns, preps), 1, benchutil.FitSlope(ns, delays), 0)
	res.Tables = append(res.Tables, t, fits)
	res.Notes = append(res.Notes,
		"Free-connex ⇒ w = 1 (Prop 3): the O(N^(1+(w−1)ε)) preprocessing bound is linear for every ε, and the view tree of Figure 9 enumerates with constant delay.",
		"The query is δ1- (not δ0-) hierarchical, so dynamic mode partitions on (A,B) and B's updates pay O(N^ε) amortized.",
	)
	return res
}

// Ex19Skew measures Example 19's four-relation query with nested
// heavy/light splits on A and (A,B): w = 3 and δ = 3, so preprocessing is
// O(N^(1+2ε)) and updates O(N^(3ε)) — Example 24's accounting.
func Ex19Skew(cfg Config) *Result {
	q := query.MustParse("Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)")
	res := &Result{ID: "ex19", Title: "Example 19: nested splits (w=3, δ=3)"}
	warmup(q)
	sizes := pick(cfg.Quick, []int{500, 1000, 2000}, []int{1000, 2000, 4000, 8000})
	eps := 0.3
	t := benchutil.NewTable("N", "preprocess", "per-update", "delay max", "trees", "indicators")
	var ns, preps, upds []float64
	for _, n := range sizes {
		r := rng(cfg, int64(n))
		db := workload.Star19(r, n, 1.3)
		sys, prep := buildAt(q, eps, db, false)
		count := 300
		if cfg.Quick {
			count = 120
		}
		per := applyStream(sys, workload.UpdateStream(r, q, db, count, 0.3))
		st := benchutil.MeasureDelay(sys, enumLimit)
		summ := sys.Engine().Forest().Summarize()
		t.Add(sys.Engine().N(), prep, per, st.Max, summ.Trees, summ.Indicators)
		ns = append(ns, float64(sys.Engine().N()))
		preps = append(preps, prep.Seconds())
		upds = append(upds, per.Seconds())
	}
	fits := benchutil.NewTable("preproc slope", "bound 1+2ε", "update slope", "bound 3ε (Example 24)")
	fits.Add(benchutil.FitSlope(ns, preps), 1+2*eps, benchutil.FitSlope(ns, upds), 3*eps)
	res.Tables = append(res.Tables, t, fits)
	res.Notes = append(res.Notes,
		"The construction of Figure 12 is pinned structurally in internal/viewtree's tests: three main view trees (all-light on A; heavy-A/light-(A,B); heavy-A/heavy-(A,B)) plus indicator triples for A and (A,B).",
		"Example 24 bounds maintenance by O(N^(3ε)) — updates to U's light part pay O(N^(3ε)), others less.",
	)
	return res
}

// Ex28MatMul runs Example 28's matrix-multiplication instances: square
// dense matrices (every join key just below the ε=1/2 threshold: the
// all-light materialization regime) and rectangular matrices (every key
// heavy: the enumeration regime), both sitting under the O(N^(3/2))
// preprocessing / O(N^(1/2)) delay bounds.
func Ex28MatMul(cfg Config) *Result {
	q := query.MustParse(fig1Query)
	res := &Result{ID: "ex28", Title: "Example 28: matrix multiplication via " + fig1Query}
	warmup(q)

	// Square dense n×n at ε = 1/2: N = 2n², every B has degree n < θ ≈ 2n →
	// all light; preprocessing materializes the product in Σ_b deg·deg = n³ =
	// O(N^(3/2)) and enumerates at O(1) delay.
	sq := benchutil.NewTable("n", "N", "preprocess", "delay max", "result tuples")
	var ns, preps []float64
	for _, n := range pick(cfg.Quick, []int{16, 24, 32}, []int{32, 48, 64, 96}) {
		db := workload.Matrix(rng(cfg, int64(n)), n, 1)
		sys, prep := buildAt(q, 0.5, db, true)
		st := benchutil.MeasureDelay(sys, 0)
		sq.Add(n, sys.Engine().N(), prep, st.Max, st.Tuples)
		ns = append(ns, float64(sys.Engine().N()))
		preps = append(preps, prep.Seconds())
	}
	sqFit := benchutil.NewTable("square dense: preproc slope", "paper preproc")
	sqFit.Add(benchutil.FitSlope(ns, preps), 1.5)
	res.Tables = append(res.Tables, sq, sqFit)

	// Endpoints on the same workload (Example 28's recovered cases).
	ends := benchutil.NewTable("eps", "n", "preprocess", "delay max", "first tuple", "regime")
	n := 48
	if cfg.Quick {
		n = 24
	}
	for _, eps := range []float64{0, 0.5, 1} {
		db := workload.Matrix(rng(cfg, 99), n, 1)
		sys, prep := buildAt(q, eps, db, true)
		st := benchutil.MeasureDelay(sys, 0)
		regime := "all heavy → on-the-fly"
		if eps >= 0.5 {
			regime = "all light → materialized"
		}
		ends.Add(eps, n, prep, st.Max, st.First, regime)
	}
	res.Tables = append(res.Tables, ends)

	res.Notes = append(res.Notes,
		"ε=0 recovers O(N) preprocessing with O(N^(1/2))-ish delay on this instance (every key heavy: enumeration walks n buckets per output row); ε≥1/2 recovers the materialized O(N^(3/2))-preprocessing, O(1)-delay regime; both sit under Example 28's O(N^(1+ε))/O(N^(1−ε)) curve.",
		"Whether a uniform-degree instance lands in the heavy or light regime at ε=1/2 depends on the constant in θ = M^ε (M ≈ 2N); the paper's bounds cover both sides, and the Zipf workloads of fig1/fig3 exercise the genuinely mixed case.",
	)
	return res
}

// Ex29Unary measures Example 29's Q(A) = R(A,B), S(B): static O(N)/O(1);
// dynamic O(N^ε) amortized updates and O(N^(1−ε)) delay.
func Ex29Unary(cfg Config) *Result {
	q := query.MustParse("Q(A) = R(A, B), S(B)")
	res := &Result{ID: "ex29", Title: "Example 29: " + q.String() + " (free-connex, δ1)"}
	warmup(q)

	staticT := benchutil.NewTable("N", "preprocess (static)", "delay max")
	sizes := pick(cfg.Quick, []int{2000, 4000, 8000}, []int{4000, 8000, 16000, 32000})
	var ns, preps []float64
	for _, n := range sizes {
		db := workload.TwoPathUnary(rng(cfg, int64(n)), n, 1.2)
		sys, prep := buildAt(q, 0.5, db, true)
		st := benchutil.MeasureDelay(sys, enumLimit)
		staticT.Add(sys.Engine().N(), prep, st.Max)
		ns = append(ns, float64(sys.Engine().N()))
		preps = append(preps, prep.Seconds())
	}
	staticFit := benchutil.NewTable("static preproc slope", "paper preproc")
	staticFit.Add(benchutil.FitSlope(ns, preps), 1)
	res.Tables = append(res.Tables, staticT, staticFit)

	dynT := benchutil.NewTable("eps", "N", "per-update", "delay max")
	n := pick(cfg.Quick, []int{6000}, []int{24000})[0]
	for _, eps := range []float64{0, 0.5, 1} {
		r := rng(cfg, int64(eps*100))
		db := workload.TwoPathUnary(r, n, 1.2)
		dbq := naive.Database{"R": db["R"], "S": db["S"]}
		sys, _ := buildAt(q, eps, dbq, false)
		count := 600
		if cfg.Quick {
			count = 250
		}
		per := applyStream(sys, workload.UpdateStream(r, q, dbq, count, 0.3))
		st := benchutil.MeasureDelay(sys, enumLimit)
		dynT.Add(eps, sys.Engine().N(), per, st.Max)
	}
	res.Tables = append(res.Tables, dynT)
	res.Notes = append(res.Notes,
		"Static mode builds the single view tree of Figure 24 (bottom-left) with no partitioning; dynamic mode adds the five dashed-box views and the B-partition.",
		"At ε=1/2 both the amortized update time and the delay sit at O(N^(1/2)) — the weakly Pareto-optimal point of Proposition 10 (the query is δ1-hierarchical).",
	)
	return res
}
