package experiments

import (
	"fmt"
	"strings"

	"ivmeps/internal/benchutil"
	"ivmeps/internal/query"
)

// fig2Catalog lists the queries placed on Figure 2's landscape, including
// every worked example in the paper and the triangle query that falls
// outside the hierarchical class.
var fig2Catalog = []struct {
	q    string
	role string
}{
	{"Q(A, B) = R(A, B), S(B)", "q-hierarchical (w=1, δ=0)"},
	{"Q(B) = R(A, B), S(B, C)", "q-hierarchical"},
	{"Q(A) = R(A, B), S(B)", "free-connex, δ1 (Example 29)"},
	{"Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)", "free-connex, δ1 (Example 18)"},
	{"Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)", "free-connex, not q-hier. (Example 12)"},
	{"Q(A, C) = R(A, B), S(B, C)", "hierarchical, not free-connex (Example 28)"},
	{"Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)", "hierarchical, w=3, δ=3 (Example 19)"},
	{"Q(Y0, Y1) = R0(X, Y0), R1(X, Y1)", "δ1 family (Definition 5)"},
	{"Q(Y0, Y1, Y2) = R0(X, Y0), R1(X, Y1), R2(X, Y2)", "δ2 family"},
	{"Q(A) = R(A, B), S(B, C), T(C)", "acyclic but NOT hierarchical"},
	{"Q() = R(A, B), S(B, C), T(A, C)", "triangle: not α-acyclic (Figure 5 rows are prior work)"},
}

// Fig2Landscape classifies the catalog and reports, per query, which of the
// structural propositions that define Figure 2's containments it violates.
func Fig2Landscape(cfg Config) *Result {
	res := &Result{ID: "fig2", Title: "query-class landscape"}
	t := benchutil.NewTable("query", "hier.", "q-hier.", "α-acyclic", "free-connex", "w", "δ", "violates", "role")
	for _, row := range fig2Catalog {
		c := query.Classify(query.MustParse(row.q))
		w, d := "-", "-"
		if c.Hierarchical {
			w, d = fmt.Sprint(c.StaticWidth), fmt.Sprint(c.DynamicWidth)
		}
		violates := strings.Join(landscapeViolations(c), ", ")
		if violates == "" {
			violates = "-"
		}
		t.Add(row.q, yn(c.Hierarchical), yn(c.QHierarchical), yn(c.AlphaAcyclic), yn(c.FreeConnex), w, d, violates, row.role)
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"q-hierarchical = δ0-hierarchical (Prop 6); free-connex hierarchical queries are δ0- or δ1-hierarchical (Prop 7) and have w = 1 (Prop 3); δ = w or w−1 (Prop 17).",
		"The same propositions are property-tested on randomly generated hierarchical queries in internal/query.",
		"Non-hierarchical rows are classified and rejected by the engine; the triangle rows of Figures 2 and 5 belong to the prior triangle-specific work [27, 29].",
	)
	return res
}

// landscapeViolations names the propositions among 3, 6, 7 and 17 that a
// hierarchical query's classification contradicts.
func landscapeViolations(c query.Class) []string {
	if !c.Hierarchical {
		return nil
	}
	var v []string
	if c.FreeConnex && c.StaticWidth != 1 {
		v = append(v, "Prop 3") // free-connex ⇒ w = 1
	}
	if c.QHierarchical != (c.DynamicWidth == 0) {
		v = append(v, "Prop 6") // q-hierarchical ⇔ δ = 0
	}
	if c.FreeConnex && c.DynamicWidth > 1 {
		v = append(v, "Prop 7") // free-connex ⇒ δ ∈ {0, 1}
	}
	if c.DynamicWidth != c.StaticWidth && c.DynamicWidth != c.StaticWidth-1 {
		v = append(v, "Prop 17") // δ ∈ {w−1, w}
	}
	return v
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
