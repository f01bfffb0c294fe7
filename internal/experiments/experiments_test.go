package experiments

import (
	"strings"
	"testing"

	"ivmeps/internal/benchutil"
	"ivmeps/internal/query"
)

func quickCfg() Config { return Config{Quick: true, Seed: 2020} }

// TestAllExperimentsRun executes every experiment in quick mode and checks
// structural sanity of the outputs. The tables report wall-time slopes and
// assert nothing; the paper's bounds are asserted on exact counts by
// TestBoundsExact, and the tests below assert only directions and exact
// facts, which are stable under test-machine timer noise.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			res := exp.Run(quickCfg())
			if res.ID != exp.ID {
				t.Fatalf("result ID %q != %q", res.ID, exp.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatalf("no tables")
			}
			out := res.Render()
			if !strings.Contains(out, "##") || len(out) < 100 {
				t.Fatalf("render too small:\n%s", out)
			}
			if strings.Contains(out, "NaN") {
				t.Errorf("a table reads NaN:\n%s", out)
			}
		})
	}
}

// TestFig2LandscapeExact: no catalogue query violates Propositions 3, 6, 7
// or 17 — the count fig2's violates column reports is 0.
func TestFig2LandscapeExact(t *testing.T) {
	for _, row := range fig2Catalog {
		if v := landscapeViolations(query.Classify(query.MustParse(row.q))); len(v) > 0 {
			t.Errorf("%s violates %v", row.q, v)
		}
	}
}

func TestFig1StaticDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Delay must shrink with ε: the fitted slope at ε=0 should exceed the
	// slope at ε=1 by a clear margin.
	q := query.MustParse(fig1Query)
	warmup(q)
	var slope [2]float64
	for i, eps := range []float64{0, 1} {
		ns, _, delays := fig1StaticSweep(quickCfg(), q, eps, benchutil.NewTable())
		slope[i] = benchutil.FitSlope(ns, delays)
	}
	if slope[0] < slope[1]+0.2 {
		t.Errorf("delay slope did not fall with ε: eps0=%.2f eps1=%.2f", slope[0], slope[1])
	}
}

// TestRebalancingCounts: the rebalance experiment's phases trigger at least
// one minor and one major rebalance, and its drain empties the database.
func TestRebalancingCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	_, e := rebalancing(quickCfg())
	st := e.Stats()
	if st.MinorRebalances < 1 || st.MajorRebalances < 1 {
		t.Errorf("rebalances: %d minor, %d major; want at least one of each", st.MinorRebalances, st.MajorRebalances)
	}
	if e.N() != 0 {
		t.Errorf("N after the drain = %d, want 0", e.N())
	}
}

func TestFindRegistry(t *testing.T) {
	if Find("fig2") == nil || Find("nope") != nil {
		t.Fatalf("Find broken")
	}
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}
