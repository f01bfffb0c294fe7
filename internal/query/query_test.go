package query

import (
	"testing"

	"ivmeps/internal/tuple"
)

func TestParseBasic(t *testing.T) {
	q, err := Parse("Q(A, C) = R(A, B), S(B, C)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "Q" || !q.Free.Equal(tuple.NewSchema("A", "C")) {
		t.Fatalf("head wrong: %v", q)
	}
	if len(q.Atoms) != 2 || q.Atoms[0].Rel != "R" || !q.Atoms[1].Vars.Equal(tuple.NewSchema("B", "C")) {
		t.Fatalf("body wrong: %v", q)
	}
	if got := q.String(); got != "Q(A, C) = R(A, B), S(B, C)" {
		t.Fatalf("String = %q", got)
	}
}

func TestParseBooleanAndWhitespace(t *testing.T) {
	q := MustParse("  Q()=R( A ),S(A)  ")
	if len(q.Free) != 0 || len(q.Atoms) != 2 {
		t.Fatalf("parse: %v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Q(A)",
		"Q(A) = ",
		"Q(A) = R(A,)",
		"Q(A) = R(A) extra",
		"Q(A, A) = R(A)",       // duplicate free variable
		"Q(Z) = R(A)",          // free var not in body
		"Q() = R(), S()",       // all atoms empty
		"(A) = R(A)",           // missing name
		"Q(A) = R(A), , S(A)",  // empty atom
		"Q(A) = R(A), R(A, B)", // one symbol, two arities
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestVarsBound(t *testing.T) {
	q := MustParse("Q(A) = R(A, B), S(B)")
	if !q.Vars().Equal(tuple.NewSchema("A", "B")) {
		t.Fatalf("Vars = %v", q.Vars())
	}
	if !q.Bound().Equal(tuple.NewSchema("B")) {
		t.Fatalf("Bound = %v", q.Bound())
	}
}

func TestAtomsOfAndDependence(t *testing.T) {
	q := MustParse("Q(A) = R(A, B), S(B, C), T(C)")
	if got := q.AtomsOf("B"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("AtomsOf(B) = %v", got)
	}
	if q.AtomSet("C") != 0b110 {
		t.Fatalf("AtomSet(C) = %b", q.AtomSet("C"))
	}
	if !q.Depends("A", "B") || q.Depends("A", "C") {
		t.Fatalf("Depends wrong")
	}
	if !q.VarsOfAtoms("B").SameSet(tuple.NewSchema("A", "B", "C")) {
		t.Fatalf("VarsOfAtoms(B) = %v", q.VarsOfAtoms("B"))
	}
	if !q.FreeOfAtoms("B").Equal(tuple.NewSchema("A")) {
		t.Fatalf("FreeOfAtoms(B) = %v", q.FreeOfAtoms("B"))
	}
}

func TestHierarchical(t *testing.T) {
	cases := []struct {
		q    string
		want bool
	}{
		{"Q(A) = R(A, B), S(B, C)", true},                                     // paper intro example
		{"Q(A) = R(A, B), S(B, C), T(C)", false},                              // paper intro counterexample
		{"Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)", true}, // Example 12
		{"Q() = R(A, B), S(B, C), T(A, C)", false},                            // triangle
		{"Q(A) = R(A)", true},
		{"Q(A, B) = R(A), S(B)", true},                                           // Cartesian product
		{"Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)", true}, // Example 19
	}
	for _, c := range cases {
		if got := MustParse(c.q).IsHierarchical(); got != c.want {
			t.Errorf("IsHierarchical(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQHierarchical(t *testing.T) {
	cases := []struct {
		q    string
		want bool
	}{
		{"Q(A, B) = R(A, B), S(B)", true},
		{"Q(A) = R(A, B), S(B)", true}, // B dominates nothing free below it... A free, atoms(A) ⊂ atoms(B)? atoms(A)={R}, atoms(B)={R,S}: B bound dominates A free → NOT q-hier
		{"Q(B) = R(A, B), S(B)", true},
		{"Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)", false}, // Example 12: B, E dominate C, F
		{"Q(A, C) = R(A, B), S(B, C)", false},
		{"Q() = R(A, B), S(B)", true}, // Boolean: no free vars to dominate
	}
	// Fix expectation for the second case per the paper's definition.
	cases[1].want = false
	for _, c := range cases {
		if got := MustParse(c.q).IsQHierarchical(); got != c.want {
			t.Errorf("IsQHierarchical(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestAlphaAcyclicAndFreeConnex(t *testing.T) {
	cases := []struct {
		q          string
		acyclic    bool
		freeConnex bool
	}{
		{"Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)", true, true}, // Example 12
		{"Q() = R(A, B), S(B, C), T(A, C)", false, false},                           // triangle
		{"Q(A, C) = R(A, B), S(B, C)", true, false},                                 // Example 28: acyclic, not free-connex
		{"Q(A) = R(A, B), S(B)", true, true},                                        // Example 29
		{"Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)", true, true},                // Example 18
		{"Q(B) = R(A, B), S(B, C)", true, true},
		{"Q(A, B) = R(A), S(B)", true, true},
		{"Q() = R(A, B), S(B, C)", true, true}, // Boolean acyclic is free-connex
	}
	for _, c := range cases {
		q := MustParse(c.q)
		if got := q.IsAlphaAcyclic(); got != c.acyclic {
			t.Errorf("IsAlphaAcyclic(%s) = %v, want %v", c.q, got, c.acyclic)
		}
		if got := q.IsFreeConnex(); got != c.freeConnex {
			t.Errorf("IsFreeConnex(%s) = %v, want %v", c.q, got, c.freeConnex)
		}
	}
}

func TestMinEdgeCover(t *testing.T) {
	q := MustParse("Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)")
	cases := []struct {
		f    tuple.Schema
		want int
	}{
		{tuple.Schema{}, 0},
		{tuple.NewSchema("A"), 1},
		{tuple.NewSchema("A", "B", "D"), 1},
		{tuple.NewSchema("D", "E"), 2},
		{tuple.NewSchema("A", "C", "D", "E", "F"), 3},
		{tuple.NewSchema("Z"), -1},
	}
	for _, c := range cases {
		if got := q.MinEdgeCover(c.f); got != c.want {
			t.Errorf("MinEdgeCover(%v) = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestWidthsPaperExamples(t *testing.T) {
	cases := []struct {
		q    string
		w, d int
	}{
		{"Q(A, C) = R(A, B), S(B, C)", 2, 1},                                     // Example 28
		{"Q(A) = R(A, B), S(B)", 1, 1},                                           // Example 29
		{"Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)", 3, 3}, // Example 19 (preproc N^{1+2ε}, update N^{3ε})
		{"Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)", 1, 1},                   // Example 18 free-connex
		{"Q(A, B) = R(A, B), S(B)", 1, 0},                                        // q-hierarchical
		{"Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)", 1, 1},    // Example 12 (free-connex ⇒ w=1 by Prop 3)
		{"Q(Y0, Y1, Y2) = R0(X, Y0), R1(X, Y1), R2(X, Y2)", 3, 2},                // δ2-hierarchical family (Def 5)
		{"Q(Y0) = R0(X, Y0)", 1, 0},                                              // δ0 family member
		{"Q(Y0, Y1) = R0(X, Y0), R1(X, Y1)", 2, 1},                               // δ1 family member
		{"Q() = R(A, B), S(B)", 1, 0},                                            // Boolean
		{"Q(A, B, C) = R(A, B), S(B, C)", 1, 0},                                  // full query
	}
	for _, c := range cases {
		q := MustParse(c.q)
		if got := q.StaticWidth(); got != c.w {
			t.Errorf("StaticWidth(%s) = %d, want %d", c.q, got, c.w)
		}
		if got := q.DynamicWidth(); got != c.d {
			t.Errorf("DynamicWidth(%s) = %d, want %d", c.q, got, c.d)
		}
	}
}

func TestWidthPanicsOnNonHierarchical(t *testing.T) {
	q := MustParse("Q() = R(A, B), S(B, C), T(A, C)")
	defer func() {
		if recover() == nil {
			t.Fatalf("StaticWidth on triangle did not panic")
		}
	}()
	q.StaticWidth()
}

func TestConnectedComponents(t *testing.T) {
	q := MustParse("Q(A, C) = R(A, B), S(C), T(C, D), U(E)")
	comps := q.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if !comps[0].Vars().SameSet(tuple.NewSchema("A", "B")) ||
		!comps[1].Vars().SameSet(tuple.NewSchema("C", "D")) ||
		!comps[2].Vars().SameSet(tuple.NewSchema("E")) {
		t.Fatalf("component split wrong: %v", comps)
	}
	if !comps[0].Free.Equal(tuple.NewSchema("A")) || !comps[1].Free.Equal(tuple.NewSchema("C")) || len(comps[2].Free) != 0 {
		t.Fatalf("component free vars wrong")
	}
	one := MustParse("Q(A) = R(A, B), S(B)")
	if len(one.ConnectedComponents()) != 1 {
		t.Fatalf("connected query split")
	}
}

func TestRepeatedSymbols(t *testing.T) {
	if MustParse("Q(A) = R(A, B), S(B)").HasRepeatedSymbols() {
		t.Fatalf("no repeats expected")
	}
	if !MustParse("Q(A) = R(A, B), R(B, A)").HasRepeatedSymbols() {
		t.Fatalf("repeat not detected")
	}
	names := MustParse("Q(A) = R(A, B), R(B, A), S(B)").RelationNames()
	if len(names) != 2 || names[0] != "R" || names[1] != "S" {
		t.Fatalf("RelationNames = %v", names)
	}
}

func TestCloneIndependence(t *testing.T) {
	q := MustParse("Q(A) = R(A, B)")
	c := q.Clone()
	c.Atoms[0].Vars[0] = "Z"
	c.Free[0] = "Z"
	if q.Atoms[0].Vars[0] != "A" || q.Free[0] != "A" {
		t.Fatalf("Clone aliases original")
	}
}

func TestClassifySummary(t *testing.T) {
	c := Classify(MustParse("Q(A, C) = R(A, B), S(B, C)"))
	want := Class{Hierarchical: true, QHierarchical: false, AlphaAcyclic: true,
		FreeConnex: false, StaticWidth: 2, DynamicWidth: 1}
	if c != want {
		t.Fatalf("Classify = %+v, want %+v", c, want)
	}
	tri := Classify(MustParse("Q() = R(A, B), S(B, C), T(A, C)"))
	if tri.Hierarchical || tri.StaticWidth != 0 {
		t.Fatalf("triangle classify = %+v", tri)
	}
}
