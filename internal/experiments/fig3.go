package experiments

import (
	"fmt"
	"math"
	"time"

	"ivmeps/internal/benchutil"
	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/workload"
)

// Fig3Tradeoff traces the blue trade-off line of Figure 3 for a
// δ1-hierarchical query: one (preprocessing, update, delay) triple per ε at
// a fixed database size, with ε = 1/2 the weakly Pareto worst-case optimal
// point (no algorithm can beat O(N^(1/2)) in both update time and delay
// unless the OMv conjecture fails, Proposition 10). The OMv reduction
// workload of Appendix B.8 is run to show the engine executing the
// conjectured-hard access pattern at the Pareto point.
func Fig3Tradeoff(cfg Config) *Result {
	q := query.MustParse(fig1Query)
	res := &Result{ID: "fig3", Title: "update/delay trade-off for δ1-hierarchical " + fig1Query}

	n := 16000
	if cfg.Quick {
		n = 4000
	}
	triple := benchutil.NewTable("eps", "N", "preprocess", "per-update", "delay max", "N^eps (µs-scale ref)", "N^(1-eps)")
	var updAt, delayAt []float64
	for _, eps := range fig3Eps(cfg) {
		r := rng(cfg, int64(eps*1000))
		size := n
		if eps >= 0.75 {
			size = n / 4
		}
		db := workload.TwoPath(r, size, 1.15)
		sys, prep := buildAt(q, eps, db, false)
		count := 800
		if cfg.Quick {
			count = 300
		}
		per := applyStream(sys, workload.UpdateStream(r, q, db, count, 0.3))
		st := benchutil.MeasureDelay(sys, enumLimit)
		nn := float64(sys.Engine().N())
		triple.Add(eps, sys.Engine().N(), prep, per, st.Max, math.Pow(nn, eps), math.Pow(nn, 1-eps))
		if eps == 0.5 {
			updAt = append(updAt, per.Seconds())
			delayAt = append(delayAt, st.Max.Seconds())
		}
	}
	res.Tables = append(res.Tables, triple)

	// OMv rounds at the Pareto point ε = 1/2 (Appendix B.8): encode an
	// n×n matrix in R, then per round re-encode a vector in S and read off
	// M·v by enumeration. Total work should scale far below the naive
	// O(n^3) per full pass.
	omvQ := query.MustParse("Q(A) = R(A, B), S(B)")
	omvT := benchutil.NewTable("n", "N=n^2-ish", "rounds", "total", "per round", "naive n^2/round ref")
	ns := pick(cfg.Quick, []int{48, 96}, []int{64, 128, 256})
	var xs, ys []float64
	for _, mn := range ns {
		inst := workload.NewOMvInstance(rng(cfg, int64(mn)), mn, 0.4)
		sys, _ := buildAt(omvQ, 0.5, inst.Matrix, false)
		var prevVec []int64
		total := benchutil.Time(func() {
			for _, vec := range inst.Rounds {
				for _, b := range prevVec {
					if err := sys.Update("S", tuple.Tuple{b}, -1); err != nil {
						panic(err)
					}
				}
				for _, b := range vec {
					if err := sys.Update("S", tuple.Tuple{b}, 1); err != nil {
						panic(err)
					}
				}
				prevVec = vec
				sys.Enumerate(func(t tuple.Tuple, m int64) bool { return true })
			}
		})
		perRound := total / time.Duration(len(inst.Rounds))
		omvT.Add(mn, sys.Engine().N(), len(inst.Rounds), total, perRound, float64(mn*mn))
		xs = append(xs, float64(mn))
		ys = append(ys, perRound.Seconds())
	}
	res.Tables = append(res.Tables, omvT)
	res.Checks = append(res.Checks, Check{
		Name:     "OMv per-round cost slope in n (ours; naive recompute is 2)",
		Measured: benchutil.FitSlope(xs, ys), Predicted: 2,
		Note: "per round: n updates at O(N^(ε))=O(n) each + enumeration; staying at/below the naive slope with far smaller constants",
	})
	res.Notes = append(res.Notes,
		"Proposition 10: no algorithm achieves O(N^(1/2−γ)) amortized update time AND delay for δ1-hierarchical queries unless OMv fails; ε = 1/2 attains the (N^(1/2), N^(1/2)) weakly Pareto-optimal corner of the gray cuboid.",
		"Moving ε below 1/2 buys cheaper updates at the price of delay, and vice versa — each triple row is one point on Figure 3's blue line.",
		fmt.Sprintf("Preprocessing stays O(N^(3/2)) for this query (w = 2), here at N ≈ %d.", n),
	)
	return res
}

func fig3Eps(cfg Config) []float64 {
	if cfg.Quick {
		return []float64{0, 0.5, 1}
	}
	return []float64{0, 0.25, 0.5, 0.75, 1}
}
