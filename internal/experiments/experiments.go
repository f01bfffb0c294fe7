// Package experiments regenerates every figure and table of the paper's
// presentation: the trade-off curves of Figure 1, the query-class landscape
// of Figure 2, the Pareto trade-off of Figure 3, the static and dynamic
// prior-work landscapes of Figures 4 and 5, and the worked examples 18, 19,
// 28, and 29. Each experiment measures the engine (and baselines) across
// database-size sweeps, fits log–log slopes, and reports them next to the
// paper's predicted exponents.
//
// Being a PODS theory paper, the original "evaluation" is complexity
// analysis; reproduction here means checking that measured scaling has the
// predicted shape (who wins, by what growth rate, where regimes cross
// over), not matching absolute constants.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"ivmeps/internal/baseline"
	"ivmeps/internal/benchutil"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks sweeps for smoke runs (benchmarks, -short tests).
	Quick bool
	// Seed fixes the workload generator.
	Seed int64
}

// Check is one measured-vs-predicted comparison.
type Check struct {
	Name      string
	Measured  float64
	Predicted float64
	// Direction-only checks compare orderings rather than magnitudes.
	Note string
}

// Result is the output of one experiment.
type Result struct {
	ID     string
	Title  string
	Tables []*benchutil.Table
	Checks []Check
	Notes  []string
}

// Render prints the result as markdown.
func (r *Result) Render() string {
	out := fmt.Sprintf("## %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	if len(r.Checks) > 0 {
		ct := benchutil.NewTable("check", "measured", "predicted", "note")
		for _, c := range r.Checks {
			ct.Add(c.Name, c.Measured, c.Predicted, c.Note)
		}
		out += ct.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "- " + n + "\n"
	}
	return out
}

// Experiment is a named runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) *Result
}

// All returns the full experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig1-static", "Static trade-off: preprocessing vs delay across ε (Theorem 2)", Fig1Static},
		{"fig1-dynamic", "Dynamic trade-off: amortized update time across ε (Theorem 4)", Fig1Dynamic},
		{"fig2", "Query-class landscape and width measures (Figure 2, Props 3/6/7/8/17)", Fig2Landscape},
		{"fig3", "Weak Pareto optimality for δ1-hierarchical queries (Figure 3, Prop 10)", Fig3Tradeoff},
		{"fig4", "Static prior-work landscape recovered by choosing ε (Figure 4)", Fig4StaticLandscape},
		{"fig5", "Dynamic prior-work landscape and baselines (Figure 5)", Fig5DynamicLandscape},
		{"ex18", "Example 18: free-connex query, linear preprocessing, O(1) delay", Ex18FreeConnex},
		{"ex19", "Example 19: 4-relation query with nested heavy/light splits (w=3, δ=3)", Ex19Skew},
		{"ex28", "Example 28: matrix multiplication Q(A,C)=R(A,B),S(B,C)", Ex28MatMul},
		{"ex29", "Example 29: Q(A)=R(A,B),S(B) under updates", Ex29Unary},
		{"rebalance", "Rebalancing: amortization under churn (Section 6.2, Props 25-27)", Rebalancing},
		{"ablation", "Ablations: Figure 8 aux views and Prop 21 aggregation pushdown", Ablation},
	}
}

// Find returns the experiment with the given ID, or nil.
func Find(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			ecopy := e
			return &ecopy
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Shared measurement helpers.

// buildAt preprocesses a fresh engine at ε over db and returns it with the
// preprocessing wall time.
func buildAt(q *query.Query, eps float64, db naive.Database, static bool) (*baseline.IVMEps, time.Duration) {
	var sys *baseline.IVMEps
	var err error
	if static {
		sys, err = baseline.NewIVMEpsStatic(q, eps)
	} else {
		sys, err = baseline.NewIVMEps(q, eps)
	}
	if err != nil {
		panic(err)
	}
	d := benchutil.Time(func() {
		if err := sys.Preprocess(db); err != nil {
			panic(err)
		}
	})
	return sys, d
}

// applyStream applies updates and returns the amortized per-update time.
func applyStream(sys baseline.System, updates []workload.Update) time.Duration {
	if len(updates) == 0 {
		return 0
	}
	d := benchutil.Time(func() {
		for _, u := range updates {
			if err := sys.Update(u.Rel, u.Tuple, u.Mult); err != nil {
				panic(fmt.Sprintf("%s: update %+v: %v", sys.Name(), u, err))
			}
		}
	})
	return d / time.Duration(len(updates))
}

// enumLimit bounds per-measurement enumeration work.
const enumLimit = 4000

// warmup runs one small throwaway build + enumeration for a query so that
// allocator and cache effects do not inflate the first measured point of a
// size sweep.
func warmup(q *query.Query) {
	r := rand.New(rand.NewSource(0))
	db := naive.Database{}
	for _, a := range q.Atoms {
		if _, ok := db[a.Rel]; ok {
			continue
		}
		rel := relation.New(a.Rel, a.Vars)
		for i := 0; i < 200; i++ {
			t := make(tuple.Tuple, len(a.Vars))
			for j := range t {
				t[j] = r.Int63n(20)
			}
			rel.Set(t, 1)
		}
		db[a.Rel] = rel
	}
	sys, _ := buildAt(q, 0.5, db, true)
	benchutil.MeasureDelay(sys, 200)
}

func rng(cfg Config, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed + salt))
}

func pick(quick bool, q, full []int) []int {
	if quick {
		return q
	}
	return full
}
