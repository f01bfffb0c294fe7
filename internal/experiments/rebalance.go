package experiments

import (
	"ivmeps/internal/benchutil"
	"ivmeps/internal/core"
	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/workload"
)

// Rebalancing stresses Section 6.2's amortization: a grow/churn/shrink
// update pattern that forces both minor rebalances (keys crossing the
// heavy/light boundary) and major rebalances (the database size crossing
// the ⌊M/4⌋ ≤ N < M invariant), then verifies the amortized per-update cost
// stays near the plain-update cost (Propositions 25-27).
func Rebalancing(cfg Config) *Result {
	res, _ := rebalancing(cfg)
	return res
}

// rebalancing runs Rebalancing and returns the engine it drained, whose
// Stats the tests read.
func rebalancing(cfg Config) (*Result, *core.Engine) {
	q := query.MustParse(fig1Query)
	res := &Result{ID: "rebalance", Title: "rebalancing amortization under churn"}
	t := benchutil.NewTable("phase", "updates", "per-update", "minor reb.", "major reb.", "N after")

	n := 8000
	churn := 8000
	if cfg.Quick {
		n, churn = 2000, 2000
	}
	r := rng(cfg, 5)
	db := workload.TwoPath(r, n, 1.15)
	sys, _ := buildAt(q, 0.5, db, false)
	e := sys.Engine()

	phase := func(name string, updates []workload.Update) {
		before := e.Stats()
		per := applyStream(sys, updates)
		after := e.Stats()
		t.Add(name, len(updates), per, after.MinorRebalances-before.MinorRebalances,
			after.MajorRebalances-before.MajorRebalances, e.N())
		if err := e.CheckInvariants(); err != nil {
			panic(err)
		}
	}

	// Phase 1: steady churn (mixed inserts/deletes at constant size-ish).
	phase("churn", workload.UpdateStream(r, q, db, churn, 0.5))

	// Phase 2: growth — doubling N forces major rebalances.
	phase("grow 2x", workload.UpdateStream(r, q, db, 2*e.N(), 0))

	// Phase 3: skew attack — hammer a single B key across the threshold
	// repeatedly to force minor rebalances.
	var skew []workload.Update
	hot := int64(1 << 20)
	cycles := 6
	width := int(e.Theta()*2) + 4
	for c := 0; c < cycles; c++ {
		for i := 0; i < width; i++ {
			skew = append(skew, workload.Update{Rel: "R", Tuple: tuple.Tuple{hot + int64(c*width+i), 7}, Mult: 1})
		}
		for i := 0; i < width; i++ {
			skew = append(skew, workload.Update{Rel: "R", Tuple: tuple.Tuple{hot + int64(c*width+i), 7}, Mult: -1})
		}
	}
	phase("skew attack", skew)

	// Phase 4: drain to near-empty — forces halving major rebalances.
	var drain []workload.Update
	for _, rel := range q.RelationNames() {
		br := e.BaseRelation(rel)
		br.ForEach(func(t tuple.Tuple, m int64) {
			drain = append(drain, workload.Update{Rel: rel, Tuple: t.Clone(), Mult: -m})
		})
	}
	phase("drain", drain)

	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"The size invariant ⌊M/4⌋ ≤ N < M and the loose partition conditions of Definition 11 are re-checked after every phase (Engine.CheckInvariants).",
		"Major rebalancing costs O(N^(1+(w−1)ε)) but is amortized over Ω(M) updates; minor rebalancing costs O(N^((δ+1)ε)) amortized over Ω(M^ε) updates (Props 25-27) — the per-update columns stay the same order of magnitude across phases.",
	)
	return res, e
}
