package viewtree

import (
	"math/rand"
	"strings"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
)

func build(t *testing.T, q string, mode Mode) *Forest {
	t.Helper()
	f, err := Build(query.MustParse(q), mode)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func renders(trees []*Node) []string {
	out := make([]string, len(trees))
	for i, n := range trees {
		out[i] = Render(n)
	}
	return out
}

func contains(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

// Example 28 / Figure 23: Q(A,C) = R(A,B), S(B,C).
func TestExample28Figure23Dynamic(t *testing.T) {
	f := build(t, "Q(A, C) = R(A, B), S(B, C)", Dynamic)
	if len(f.Components) != 1 {
		t.Fatalf("components = %d", len(f.Components))
	}
	got := renders(f.Components[0].Trees)
	// Heavy tree: VB(B) = ∃HB(B), R'(B), S'(B) (Figure 23 bottom-right).
	wantHeavy := "V(B)[∃H{B}, V(B)[R(A, B)], V(B)[S(B, C)]]"
	// Light tree: VB(A,C) = R^B(A,B), S^B(B,C) (Figure 23 bottom-left).
	wantLight := "V(A, C)[R^{B}(A, B), S^{B}(B, C)]"
	if !contains(got, wantHeavy) || !contains(got, wantLight) || len(got) != 2 {
		t.Fatalf("trees = %v", got)
	}
	if len(f.Indicators) != 1 {
		t.Fatalf("indicators = %d", len(f.Indicators))
	}
	ind := f.Indicators[0]
	if !ind.Keys.Equal(tuple.NewSchema("B")) {
		t.Fatalf("indicator keys = %v", ind.Keys)
	}
	// AllB(B) = ∃AllA(B), ∃AllC(B) over base relations (Figure 23 top-left);
	// AllA and AllC are the heavy tree's R'(B) and S'(B) over again.
	if got := Render(ind.All); got != "V(B)[∃=AuxA_7, ∃=AuxC_8]" {
		t.Fatalf("All tree = %s", got)
	}
	// LB(B) over light parts (Figure 23 top-middle).
	if got := Render(ind.L); got != "V(B)[∃V(B)[R^{B}(A, B)], ∃V(B)[S^{B}(B, C)]]" {
		t.Fatalf("L tree = %s", got)
	}
	if len(f.LightParts) != 2 {
		t.Fatalf("light parts = %d", len(f.LightParts))
	}
}

func TestExample28Static(t *testing.T) {
	f := build(t, "Q(A, C) = R(A, B), S(B, C)", Static)
	got := renders(f.Components[0].Trees)
	// Static: no aux views; heavy tree joins R and S directly under VB(B).
	wantHeavy := "V(B)[∃H{B}, R(A, B), S(B, C)]"
	wantLight := "V(A, C)[R^{B}(A, B), S^{B}(B, C)]"
	if !contains(got, wantHeavy) || !contains(got, wantLight) {
		t.Fatalf("trees = %v", got)
	}
}

// Example 29 / Figure 24: Q(A) = R(A,B), S(B).
func TestExample29Figure24(t *testing.T) {
	// Static: free-connex → single BuildVT tree VB(A) = R(A,B), S(B); no
	// partitioning (Figure 24 bottom-left).
	fs := build(t, "Q(A) = R(A, B), S(B)", Static)
	got := renders(fs.Components[0].Trees)
	if len(got) != 1 || got[0] != "V(A)[R(A, B), S(B)]" {
		t.Fatalf("static trees = %v", got)
	}
	if len(fs.Indicators) != 0 || len(fs.LightParts) != 0 {
		t.Fatalf("static built partitions: %+v", fs.Summarize())
	}

	// Dynamic: δ = 1, so B is split (Figure 24 right column).
	fd := build(t, "Q(A) = R(A, B), S(B)", Dynamic)
	got = renders(fd.Components[0].Trees)
	wantHeavy := "V(B)[∃H{B}, V(B)[R(A, B)], S(B)]"
	wantLight := "V(A)[R^{B}(A, B), S^{B}(B)]"
	if !contains(got, wantHeavy) || !contains(got, wantLight) || len(got) != 2 {
		t.Fatalf("dynamic trees = %v", got)
	}
	ind := fd.Indicators[0]
	// AllB(B) = ∃AllA(B), S(B) (Figure 24 top-left).
	if got := Render(ind.All); got != "V(B)[∃=AuxA_5, S(B)]" {
		t.Fatalf("All tree = %s", got)
	}
}

// Example 18 / Figure 9: the free-connex query's single static view tree.
func TestExample18Figure9Static(t *testing.T) {
	f := build(t, "Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)", Static)
	got := renders(f.Components[0].Trees)
	want := "V(A)[V(A, D)[V(A, B)[R(A, B, C)], S(A, B, D)], T(A, E)]"
	if len(got) != 1 || got[0] != want {
		t.Fatalf("trees = %v, want [%s]", got, want)
	}
}

// Example 18 dynamic BuildVT adds the aux views V'B(A) and T'(A) of
// Figure 9.
func TestExample18Figure9DynamicBuildVT(t *testing.T) {
	f, err := BuildVTOnly(query.MustParse("Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)"), Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	got := Render(f.Components[0].Trees[0])
	want := "V(A)[V(A)[V(A, D)[V(A, B)[R(A, B, C)], S(A, B, D)]], V(A)[T(A, E)]]"
	if got != want {
		t.Fatalf("tree = %s, want %s", got, want)
	}
}

// Example 19 / Figure 12: three main view trees and two indicator triples.
func TestExample19Figure12(t *testing.T) {
	f := build(t, "Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)", Dynamic)
	got := renders(f.Components[0].Trees)
	if len(got) != 3 {
		t.Fatalf("want 3 trees, got %d: %v", len(got), got)
	}
	// Light-A tree (Figure 12 bottom-left).
	wantLightA := "V(C, D, E, F)[V(A, D, E)[R^{A}(A, B, D), S^{A}(A, B, E)], V(A, C, F)[T^{A}(A, C, F), V(A, C)[U^{A}(A, C, G)]]]"
	// Heavy-A, light-(A,B) tree (Figure 12 bottom-middle); its C branch is
	// the heavy-(A,B) tree's, which comes first.
	wantHeavyALightB := "V(A)[∃H{A}, V(A)[V(A, D, E)[R^{A,B}(A, B, D), S^{A,B}(A, B, E)]], =AuxC_35]"
	// Heavy-A, heavy-(A,B) tree (Figure 12 second row right).
	wantHeavyAB := "V(A)[∃H{A}, V(A)[V(A, B)[∃H{A,B}, V(A, B)[R(A, B, D)], V(A, B)[S(A, B, E)]]], V(A)[V(A, C)[V(A, C)[T(A, C, F)], V(A, C)[U(A, C, G)]]]]"
	for _, w := range []string{wantLightA, wantHeavyALightB, wantHeavyAB} {
		if !contains(got, w) {
			t.Fatalf("missing tree %s\ngot: %s", w, strings.Join(got, "\n"))
		}
	}
	if len(f.Indicators) != 2 {
		t.Fatalf("indicators = %d, want 2", len(f.Indicators))
	}
	keyStrs := map[string]bool{}
	for _, ind := range f.Indicators {
		keyStrs[joinVars(ind.Keys)] = true
	}
	if !keyStrs["A"] || !keyStrs["A,B"] {
		t.Fatalf("indicator keys wrong: %v", keyStrs)
	}
	// Light parts: R,S,T,U on A and R,S on (A,B) → 6.
	if len(f.LightParts) != 6 {
		t.Fatalf("light parts = %d, want 6", len(f.LightParts))
	}
}

func TestBuildRejectsNonHierarchical(t *testing.T) {
	if _, err := Build(query.MustParse("Q() = R(A, B), S(B, C), T(A, C)"), Static); err == nil {
		t.Fatalf("triangle accepted")
	}
	if _, err := BuildVTOnly(query.MustParse("Q() = R(A, B), S(B, C), T(A, C)"), Static); err == nil {
		t.Fatalf("triangle accepted by BuildVTOnly")
	}
}

func TestQHierarchicalSingleTreeDynamic(t *testing.T) {
	// δ0-hierarchical: dynamic mode needs no partitioning.
	f := build(t, "Q(A, B) = R(A, B), S(B)", Dynamic)
	if len(f.Indicators) != 0 || len(f.LightParts) != 0 {
		t.Fatalf("partitioned a q-hierarchical query: %+v", f.Summarize())
	}
	if len(f.Components[0].Trees) != 1 {
		t.Fatalf("trees = %v", renders(f.Components[0].Trees))
	}
}

func TestCartesianProductComponents(t *testing.T) {
	f := build(t, "Q(A, C) = R(A, B), S(C, D)", Static)
	if len(f.Components) != 2 {
		t.Fatalf("components = %d", len(f.Components))
	}
	for _, c := range f.Components {
		if len(c.Trees) != 1 {
			t.Fatalf("component trees = %v", renders(c.Trees))
		}
	}
}

func TestParentsAndUniqueViewNames(t *testing.T) {
	f := build(t, "Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)", Dynamic)
	names := map[string]int{}
	var walk func(n *Node, parent *Node)
	walk = func(n *Node, parent *Node) {
		if n.Parent != parent {
			t.Fatalf("parent pointer wrong at %s", n.Name)
		}
		if n.Kind == View {
			names[n.Name]++
		}
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	for _, tr := range f.Trees() {
		walk(tr, nil)
	}
	for _, ind := range f.Indicators {
		walk(ind.All, nil)
		walk(ind.L, nil)
	}
	for name, c := range names {
		if c > 1 {
			t.Fatalf("view name %s used %d times", name, c)
		}
	}
}

func TestSummarize(t *testing.T) {
	f := build(t, "Q(A, C) = R(A, B), S(B, C)", Dynamic)
	s := f.Summarize()
	if s.Trees != 2 || s.Indicators != 1 || s.LightParts != 2 || s.Views == 0 {
		t.Fatalf("stats = %+v", s)
	}
	for _, tc := range []struct {
		q               string
		views, distinct int
	}{
		{"Q(A, C) = R(A, B), S(B, C)", 10, 8},
		{"Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)", 44, 24},
		{"Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)", 40, 29},
		{"Q(C, E) = R(A), S(A, B), T(A, B, C), U(A, D), V(A, D, E)", 45, 31},
	} {
		if s := build(t, tc.q, Dynamic).Summarize(); s.Views != tc.views || s.DistinctViews != tc.distinct {
			t.Errorf("%s: %d views, %d distinct; want %d, %d", tc.q, s.Views, s.DistinctViews, tc.views, tc.distinct)
		}
	}
}

// plain renders a subtree with every view spelled out and no marks: what
// Render printed before views were classed.
func plain(n *Node) string {
	if n.Kind != View {
		return Render(n)
	}
	kids := make([]string, len(n.Children))
	for i, c := range n.Children {
		kids[i] = plain(c)
	}
	return "V" + n.Schema.String() + "[" + strings.Join(kids, ", ") + "]"
}

// existsDepth is the longest run of ∃-edges below a node: 0 in a main tree
// and for an indicator tree's views over leaves alone.
func existsDepth(n *Node) int {
	d := 0
	for _, c := range n.Children {
		if c.Exists {
			d = max(d, 1+existsDepth(c))
		}
	}
	return d
}

// TestSharedClasses: two view nodes are one class exactly when their
// subtrees read alike and sit at the same ∃-depth; the canonical node is the
// first of its class, equal nodes have equal children, and what enumeration
// starts from — a main tree's root — is never a copy.
func TestSharedClasses(t *testing.T) {
	var queries []*query.Query
	for _, qs := range []string{
		"Q(A, C) = R(A, B), S(B, C)",
		"Q(A) = R(A, B), S(B)",
		"Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)",
		"Q(B) = R(A, B), S(B, C)",
		"Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)",
		"Q(C, E) = R(A), S(A, B), T(A, B, C), U(A, D), V(A, D, E)",
	} {
		queries = append(queries, query.MustParse(qs))
	}
	rng := rand.New(rand.NewSource(24))
	gen := query.GenOptions{MaxDepth: 3, MaxBranch: 2, ExtraAtomP: 0.3, FreeP: 0.5, MaxChainLen: 2}
	for i := 0; i < 25; i++ {
		queries = append(queries, query.RandomHierarchical(rng, gen))
	}
	shared := 0
	for _, q := range queries {
		f, err := Build(q, Dynamic)
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			subtree string
			depth   int
		}
		first := map[key]*Node{}
		var walk func(n *Node, main bool)
		walk = func(n *Node, main bool) {
			if n.Kind != View {
				if n.Canon != n || n.Exists {
					t.Fatalf("%s: leaf %s is classed or marked", q, n.Name)
				}
				return
			}
			if main && n.Exists {
				t.Fatalf("%s: %s is read through ∃ in a main tree", q, n.Name)
			}
			k := key{plain(n), existsDepth(n)}
			if first[k] == nil {
				first[k] = n // the walk follows the numbering
			} else {
				shared++
			}
			if n.Canon != first[k] {
				t.Fatalf("%s: %s has canonical node %s, want %s (%s at ∃-depth %d)", q, n.Name, n.Canon.Name, first[k].Name, k.subtree, k.depth)
			}
			if n.Canon.ID > n.ID {
				t.Fatalf("%s: canonical node %s comes after %s", q, n.Canon.Name, n.Name)
			}
			if n.Parent == nil && main && n.Canon != n {
				t.Fatalf("%s: main root %s is a copy of %s", q, n.Name, n.Canon.Name)
			}
			for i, c := range n.Children {
				counterpart := n.Canon.Children[i]
				if c.Kind == View && c.Canon != counterpart.Canon || c.Kind != View && plain(c) != plain(counterpart) {
					t.Fatalf("%s: %s and %s, child %d of %s and of its canonical node, differ", q, c.Name, counterpart.Name, i, n.Name)
				}
				if n.Canon != n && c.Kind == View && c.Canon == c {
					t.Fatalf("%s: %s is canonical below the copy %s", q, c.Name, n.Name)
				}
				walk(c, main)
			}
		}
		for _, tr := range f.Trees() {
			walk(tr, true)
		}
		for _, ind := range f.Indicators {
			walk(ind.All, false)
			walk(ind.L, false)
		}
	}
	if shared == 0 {
		t.Fatalf("no query shared a view")
	}
}

func TestModeString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Fatalf("Mode.String wrong")
	}
}
