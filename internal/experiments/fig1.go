package experiments

import (
	"fmt"
	"ivmeps/internal/benchutil"
	"ivmeps/internal/query"
	"ivmeps/internal/workload"
)

// fig1Query is the running δ1-hierarchical, non-free-connex query with
// w = 2, δ = 1 (Example 28): preprocessing O(N^(1+ε)), delay O(N^(1−ε)),
// amortized updates O(N^ε).
const fig1Query = "Q(A, C) = R(A, B), S(B, C)"

var fig1Eps = []float64{0, 0.25, 0.5, 0.75, 1}

// Fig1Static sweeps N × ε on Zipf-skewed data in static mode and fits the
// preprocessing-time and delay slopes against Theorem 2's exponents.
func Fig1Static(cfg Config) *Result {
	q := query.MustParse(fig1Query)
	res := &Result{ID: "fig1-static", Title: "static trade-off for " + fig1Query + " (w=2)"}
	warmup(q)
	sweep := benchutil.NewTable("eps", "N", "preprocess", "delay max", "delay p99", "ops/tuple p99", "first tuple")
	fits := benchutil.NewTable("eps", "preproc slope", "bound 1+(w-1)ε", "delay slope (ops p99)", "bound 1-ε")
	for _, eps := range fig1Eps {
		ns, preps, delays := fig1StaticSweep(cfg, q, eps, sweep)
		fits.Add(eps, benchutil.FitSlope(ns, preps), 1+eps, benchutil.FitSlope(ns, delays), 1-eps)
	}
	res.Tables = append(res.Tables, sweep, fits)
	res.Notes = append(res.Notes,
		"Theorem 2: O(N^(1+(w-1)ε)) preprocessing, O(N^(1-ε)) delay; w=2 for this query.",
		"ε=0 recovers the α-acyclic point (linear preprocessing, linear delay); ε=1 the full-materialization point (O(N^w) preprocessing, O(1) delay).",
		fmt.Sprintf("Delay statistics over the first %d tuples. Slope fits use the p99 of per-tuple engine operations (cursor advances + lookups), a machine-independent delay proxy; the wall-time max column additionally absorbs one-off bursts from the Union algorithm's operand-exhaustion drain (the corner Figure 15's pseudocode elides), which amortize but are not per-tuple.", enumLimit),
		"Both slopes are upper bounds, and skew decides how tight; a fit over sizes below the M^ε threshold may read above its bound without breaking O(·), which TestBoundsExact asserts on exact counts.",
	)
	return res
}

// fig1StaticSweep measures one ε of Fig1Static: a row of sweep per size, and
// the sizes N, preprocessing seconds and p99 ops per tuple the fits read.
func fig1StaticSweep(cfg Config, q *query.Query, eps float64, sweep *benchutil.Table) (ns, preps, delays []float64) {
	sizes := pick(cfg.Quick, []int{1000, 2000, 4000, 8000}, []int{2000, 4000, 8000, 16000, 32000})
	if eps >= 0.75 {
		// The output (and hence materialization) grows quadratically on
		// skewed data near ε = 1; keep the sweep affordable.
		sizes = pick(cfg.Quick, []int{500, 1000, 2000, 4000}, []int{1000, 2000, 4000, 8000})
	}
	for _, n := range sizes {
		db := workload.TwoPath(rng(cfg, int64(eps*1000)), n, 1.15)
		sys, prep := buildAt(q, eps, db, true)
		st := benchutil.MeasureDelay(sys, enumLimit)
		ops := delayOpsP99(sys, enumLimit)
		sweep.Add(eps, sys.Engine().N(), prep, st.Max, st.P99, ops, st.First)
		ns = append(ns, float64(sys.Engine().N()))
		preps = append(preps, prep.Seconds())
		delays = append(delays, float64(ops))
	}
	return ns, preps, delays
}

// Fig1Dynamic repeats the sweep in dynamic mode and measures amortized
// single-tuple update time against Theorem 4's O(N^(δε)) with δ = 1.
func Fig1Dynamic(cfg Config) *Result {
	q := query.MustParse(fig1Query)
	res := &Result{ID: "fig1-dynamic", Title: "dynamic trade-off for " + fig1Query + " (δ=1)"}
	warmup(q)
	sweep := benchutil.NewTable("eps", "N", "preprocess", "per-update", "ops/tuple p99")
	fits := benchutil.NewTable("eps", "update slope", "bound δε", "delay slope (ops p99)", "bound 1-ε")

	for _, eps := range fig1Eps {
		sizes := pick(cfg.Quick, []int{1000, 2000, 4000, 8000}, []int{2000, 4000, 8000, 16000, 32000})
		if eps >= 0.75 {
			sizes = pick(cfg.Quick, []int{500, 1000, 2000, 4000}, []int{1000, 2000, 4000, 8000})
		}
		var ns, upds, delays []float64
		for _, n := range sizes {
			r := rng(cfg, int64(n)*7)
			db := workload.TwoPath(r, n, 1.15)
			sys, prep := buildAt(q, eps, db, false)
			count := 1000
			if cfg.Quick {
				count = 400
			}
			stream := workload.UpdateStream(r, q, db, count, 0.3)
			per := applyStream(sys, stream)
			ops := delayOpsP99(sys, enumLimit)
			sweep.Add(eps, sys.Engine().N(), prep, per, ops)
			ns = append(ns, float64(sys.Engine().N()))
			upds = append(upds, per.Seconds())
			delays = append(delays, float64(ops))
		}
		fits.Add(eps, benchutil.FitSlope(ns, upds), eps, benchutil.FitSlope(ns, delays), 1-eps)
	}
	res.Tables = append(res.Tables, sweep, fits)
	res.Notes = append(res.Notes,
		"Theorem 4: amortized update time O(N^(δε)) with δ=1; the measured time includes minor and major rebalancing (Proposition 27).",
		"ε=0 gives constant-time updates with linear delay; ε=1 gives O(N) updates with constant delay (the classical IVM point).",
	)
	return res
}
