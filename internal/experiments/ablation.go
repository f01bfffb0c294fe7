package experiments

import (
	"time"

	"ivmeps/internal/benchutil"
	"ivmeps/internal/core"
	"ivmeps/internal/query"
	"ivmeps/internal/viewtree"
	"ivmeps/internal/workload"
)

// Ablation quantifies the two load-bearing design choices documented in
// DESIGN.md:
//
//  1. the auxiliary views of Figure 8 (constant-time delta propagation,
//     Lemma 47) — disabled, deltas join wider siblings and the update
//     slope degrades toward O(N);
//  2. the InsideOut aggregation pushdown in view materialization (behind
//     Proposition 21) — disabled, covered views are computed as flat joins
//     and preprocessing degrades toward the join output size.
//
// Both ablations preserve correctness (tested in internal/core); they only
// change cost, which is exactly what this experiment measures.
func Ablation(cfg Config) *Result {
	q := query.MustParse(fig1Query)
	res := &Result{ID: "ablation", Title: "ablations: aux views (Figure 8) and aggregation pushdown (Prop 21)"}
	warmup(q)

	// --- Aux views: amortized update time with and without.
	auxT := benchutil.NewTable("N", "per-update (with aux)", "per-update (no aux)", "slowdown")
	sizes := pick(cfg.Quick, []int{1000, 2000, 4000}, []int{2000, 4000, 8000, 16000})
	var ns, with, without []float64
	for _, n := range sizes {
		var per [2]time.Duration
		var nn int
		for i, noAux := range []bool{false, true} {
			r := rng(cfg, int64(n)*13)
			db := workload.TwoPath(r, n, 1.15)
			e, err := core.New(q, core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5, NoAuxViews: noAux})
			if err != nil {
				panic(err)
			}
			if err := core.Preprocess(e, db.Clone()); err != nil {
				panic(err)
			}
			count := 400
			if cfg.Quick {
				count = 150
			}
			stream := workload.UpdateStream(r, q, db, count, 0.3)
			d := benchutil.Time(func() {
				for _, u := range stream {
					if err := e.Update(u.Rel, u.Tuple, u.Mult); err != nil {
						panic(err)
					}
				}
			})
			per[i] = d / time.Duration(len(stream))
			nn = e.N()
		}
		auxT.Add(nn, per[0], per[1], float64(per[1])/float64(per[0]))
		ns = append(ns, float64(nn))
		with = append(with, per[0].Seconds())
		without = append(without, per[1].Seconds())
	}
	auxFit := benchutil.NewTable("update slope (with aux)", "bound δε", "update slope (no aux)", "degrades toward")
	auxFit.Add(benchutil.FitSlope(ns, with), 0.5, benchutil.FitSlope(ns, without), 1)
	res.Tables = append(res.Tables, auxT, auxFit)

	// --- Pushdown: static preprocessing at ε = 0 with and without.
	pushT := benchutil.NewTable("N", "preprocess (pushdown)", "preprocess (flat join)", "slowdown")
	var ns2, withP, withoutP []float64
	sizes2 := pick(cfg.Quick, []int{1000, 2000, 4000}, []int{2000, 4000, 8000, 16000})
	for _, n := range sizes2 {
		var prep [2]time.Duration
		var nn int
		for i, noPush := range []bool{false, true} {
			db := workload.TwoPath(rng(cfg, 999), n, 1.15)
			e, err := core.New(q, core.Options{Mode: viewtree.Static, Epsilon: 0, NoPushdown: noPush})
			if err != nil {
				panic(err)
			}
			prep[i] = benchutil.Time(func() {
				if err := core.Preprocess(e, db); err != nil {
					panic(err)
				}
			})
			nn = e.N()
		}
		pushT.Add(nn, prep[0], prep[1], float64(prep[1])/float64(prep[0]))
		ns2 = append(ns2, float64(nn))
		withP = append(withP, prep[0].Seconds())
		withoutP = append(withoutP, prep[1].Seconds())
	}
	pushFit := benchutil.NewTable("preproc slope (pushdown)", "bound", "preproc slope (flat join)", "flat join")
	pushFit.Add(benchutil.FitSlope(ns2, withP), 1, benchutil.FitSlope(ns2, withoutP), 2)
	res.Tables = append(res.Tables, pushT, pushFit)
	res.Notes = append(res.Notes,
		"Both ablations are correctness-preserving (verified by golden tests); they isolate where the paper's asymptotics come from.",
		"Aux views (Figure 8) are what make a single-tuple delta pass each view in O(1) sibling lookups (Lemma 47); without them the engine still answers correctly but pays sibling-subtree scans per update.",
		"The aggregation pushdown is the InsideOut step used in Proposition 21's materialization argument; without it, covered views like V(B) = ∃H(B), R(A,B), S(B,C) are computed as flat joins with cost Σ_b deg²(b).",
	)
	return res
}
