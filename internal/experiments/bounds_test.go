package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ivmeps/internal/core"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// TestBoundsExact asserts the paper's three guarantees on exact counts, as
// four bounds, for every hierarchical query of the Figure 2 catalogue at
// ε ∈ {0, ½, 1} and two sizes:
//
//   - space (Proposition 21): the tuples the engine stores
//     (Engine.Footprint) ≤ C·N^(1+(w−1)ε), after Build and, as a bound of
//     its own, after every major rebalance;
//   - delay (Proposition 22): the worst gap in Engine.Work ops between two
//     consecutive rows of a full enumeration — the gap to the first row
//     (iterator open included) and the one after the last row counted too
//     (Bagan, Durand and Grandjean, CSL 2007) — ≤ C·N^(1−ε), after Build and
//     at the end of the update stream;
//   - update (Proposition 27): view rows written per update, the refill of
//     every major rebalance counted as the tuples stored after it —
//     (DeltasApplied + Σ stored tuples at each major rebalance) ÷ Updates —
//     ≤ C·N^(δε), over a single-tuple update stream that crosses two major
//     rebalances.
//
// No C is fitted: each is derived below (boundsModel) from the forest's
// shape and the invariants the engine keeps — heavy keys have degree ≥ ½M^ε,
// light keys light degree < 3/2·M^ε, and ⌊M/4⌋ ≤ N < M — and the test logs,
// per run and bound, the largest count ÷ N-power it saw beside C, the
// derived count ÷ the same power, then the largest share of C over all runs.
func TestBoundsExact(t *testing.T) {
	var worst [len(boundNames)]float64
	for qi, row := range fig2Catalog {
		q := query.MustParse(row.q)
		c := query.Classify(q)
		if !c.Hierarchical {
			continue
		}
		for _, eps := range []float64{0, 0.5, 1} {
			for _, n := range boundsSizes(c.StaticWidth) {
				r := boundsRun(t, q, c, eps, n, int64(1000*qi+n))
				line := fmt.Sprintf("%s ε=%.1f N=%d (%d updates, %d minor, %d major):", row.q, eps, r.n, r.updates, r.minor, r.major)
				for b, name := range boundNames {
					line += fmt.Sprintf("  %s %.3g ≤ C %.3g", name, r.ratio[b], r.c[b])
					worst[b] = max(worst[b], r.ratio[b]/r.c[b])
				}
				t.Log(line)
			}
		}
	}
	for b, w := range worst {
		t.Logf("largest ratio ÷ C, %s: %.3f", boundNames[b], w)
	}
}

// The four bounds, in boundsResult's arrays.
const (
	boundBuild     = iota // stored tuples after Build
	boundRebalance        // stored tuples after each major rebalance
	boundDelay            // worst gap in Work ops
	boundUpdate           // amortized view writes per update
)

var boundNames = [...]string{"space after Build", "space after major rebalance", "delay", "update"}

// boundsSizes gives the tuples per relation of the two sizes a query of
// static width w runs at: at ε = 1 the engine materializes the whole
// result, Σ over a key of the product of w degrees, so a wider query runs
// smaller.
func boundsSizes(w int) []int {
	if w >= 3 {
		return []int{50, 150}
	}
	return []int{200, 600}
}

// boundsResult is one (query, ε, size) run: the largest ratio of each bound
// and the C it is held to.
type boundsResult struct {
	n                     int
	ratio, c              [len(boundNames)]float64
	updates, minor, major int64
}

func boundsRun(t *testing.T, q *query.Query, c query.Class, eps float64, perRel int, seed int64) boundsResult {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	g := newBoundsGen(rnd, q, perRel)
	e, err := core.New(q, core.Options{Mode: viewtree.Dynamic, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Preprocess(e, g.db()); err != nil {
		t.Fatal(err)
	}
	model := boundsModel{f: e.Forest(), eps: eps}
	var res boundsResult
	res.n = e.N()
	// observe records one measurement of bound b: the count and the derived
	// bound over the bound's power of N, keeping the largest ratio.
	observe := func(b int, count, derived, power float64) {
		if count/power > res.ratio[b] {
			res.ratio[b] = count / power
			res.c[b] = derived / power
		}
		if count > derived {
			t.Errorf("%s ε=%v N=%d: %s count %.0f exceeds the derived %.0f", q, eps, e.N(), boundNames[b], count, derived)
		}
	}
	checkSpace := func(b int) int {
		_, stored := e.Footprint()
		n := e.N()
		observe(b, float64(stored), model.stored(n), math.Pow(float64(n), 1+float64(c.StaticWidth-1)*eps))
		return stored
	}
	checkDelay := func() {
		n := e.N()
		observe(boundDelay, float64(worstGap(e)), model.delayOps(n), math.Pow(float64(n), 1-eps))
	}
	checkSpace(boundBuild)
	checkDelay()

	// The update stream: grow until the first major rebalance, then delete
	// at random until the second. Below ε = 1, half of the inserts go to one
	// fresh key of the root variable, which starts light and must move
	// heavy; at ε = 1 every key stays light and the hot key would only
	// materialize its product.
	nmax, refills := e.N(), 0
	start := e.Stats()
	apply := func(rel string, tup tuple.Tuple, m int64) {
		before := e.Stats().MajorRebalances
		if err := e.Update(rel, tup, m); err != nil {
			t.Fatal(err)
		}
		nmax = max(nmax, e.N())
		if e.Stats().MajorRebalances != before {
			refills += checkSpace(boundRebalance)
		}
	}
	hot := 0 // the hot inserts, relation by relation in equal blocks
	if eps < 1 {
		hot = (res.n + 1) / 2
	}
	for i := 0; e.Stats().MajorRebalances-start.MajorRebalances < 1; i++ {
		rel, tup := g.insert(i < hot, i*len(g.rels)/max(hot, 1))
		apply(rel, tup, 1)
	}
	for e.Stats().MajorRebalances-start.MajorRebalances < 2 {
		rel, tup := g.delete()
		apply(rel, tup, -1)
	}
	st := e.Stats()
	res.updates = st.Updates - start.Updates
	res.minor = st.MinorRebalances - start.MinorRebalances
	res.major = st.MajorRebalances - start.MajorRebalances
	writes := float64(st.DeltasApplied-start.DeltasApplied) + float64(refills)
	observe(boundUpdate, writes/float64(res.updates), model.updateWrites(nmax), math.Pow(float64(nmax), float64(c.DynamicWidth)*eps))
	checkDelay()
	if err := e.CheckInvariants(); err != nil {
		t.Errorf("%s ε=%v: %v", q, eps, err)
	}
	return res
}

// worstGap enumerates the whole result and returns the largest number of
// Work ops between consecutive rows, counting the open before the first row
// and the call that finds the end after the last.
func worstGap(e *core.Engine) int64 {
	last := e.Work()
	it := e.Result()
	defer it.Close()
	var gap int64
	for {
		_, _, ok := it.Next()
		now := e.Work()
		gap = max(gap, now-last)
		last = now
		if !ok {
			return gap
		}
	}
}

// boundsModel derives the constant of each bound from a forest's shape and
// the invariants the engine keeps, at a database size n. λ(n) = 3/2·M^ε
// bounds a light key's light degree, and ⌊M/4⌋ ≤ N < M gives M < 4(n+1).
type boundsModel struct {
	f   *viewtree.Forest
	eps float64
}

func (m boundsModel) lambda(n int) float64 { return 1.5 * math.Pow(4*float64(n+1), m.eps) }

// leaves lists the leaves below v.
func leaves(v *viewtree.Node) []*viewtree.Node {
	if len(v.Children) == 0 {
		return []*viewtree.Node{v}
	}
	var out []*viewtree.Node
	for _, ch := range v.Children {
		out = append(out, leaves(ch)...)
	}
	return out
}

// extend bounds the rows each row binding the variables of fixed extends to
// in π_target of a join over ls: the cheapest subset of ls whose schemas
// cover target's unfixed variables, each member counted at its largest
// degree under fixed — 1 for a heavy indicator and λ for a light part
// whose keys fixed binds, n (its size) for any other leaf.
func extend(target, fixed tuple.Schema, ls []*viewtree.Node, lambda float64, n int) float64 {
	need := target.Minus(fixed)
	best := math.Inf(1)
	for set := 0; set < 1<<len(ls); set++ {
		var covered tuple.Schema
		cost := 1.0
		for i, l := range ls {
			if set&(1<<i) == 0 {
				continue
			}
			covered = covered.Union(l.Schema)
			switch {
			case l.Kind == viewtree.IndicatorRef && fixed.ContainsAll(l.Keys):
			case l.Kind == viewtree.LightAtom && fixed.ContainsAll(l.Keys):
				cost *= lambda
			default:
				cost *= float64(n)
			}
		}
		if covered.ContainsAll(need) {
			best = min(best, cost)
		}
	}
	return best
}

// otherLeaves lists the leaves below v but l.
func otherLeaves(v, l *viewtree.Node) []*viewtree.Node {
	var out []*viewtree.Node
	for _, o := range leaves(v) {
		if o != l {
			out = append(out, o)
		}
	}
	return out
}

// rows bounds the rows of view v: one leaf's rows, at most n, each
// extended over the others.
func (m boundsModel) rows(v *viewtree.Node, n int) float64 {
	best := math.Inf(1)
	for _, l := range leaves(v) {
		best = min(best, float64(n)*extend(v.Schema, l.Schema, otherLeaves(v, l), m.lambda(n), n))
	}
	return best
}

// stored bounds Footprint's tuples (Proposition 21): the base relations
// together hold n, every light part and heavy indicator at most n, every
// view class rows(view), and each push-down aggregate, a sum of one child
// of a view with several, at most what that child holds.
func (m boundsModel) stored(n int) float64 {
	s := m.f.Summarize()
	total := float64(n * (1 + s.LightParts + s.Indicators))
	m.nodes(func(v *viewtree.Node) {
		if v.Kind != viewtree.View || v.Canon != v {
			return
		}
		total += m.rows(v, n)
		if len(v.Children) > 1 {
			for _, ch := range v.Children {
				if ch.Kind == viewtree.View {
					total += m.rows(ch, n)
				} else {
					total += float64(n)
				}
			}
		}
	})
	return total
}

// nodes visits every node of the forest: main trees, then indicator trees.
func (m boundsModel) nodes(fn func(v *viewtree.Node)) {
	var walk func(v *viewtree.Node)
	walk = func(v *viewtree.Node) {
		fn(v)
		for _, ch := range v.Children {
			walk(ch)
		}
	}
	for _, t := range m.f.Trees() {
		walk(t)
	}
	for _, ind := range m.f.Indicators {
		walk(ind.All)
		walk(ind.L)
	}
}

// pathWrites bounds the view rows a one-row delta at leaf l — a row binding
// the variables of l's schema — writes on its way to the root: at each
// view above, the rows it extends to over the view's other leaves.
func (m boundsModel) pathWrites(l *viewtree.Node, n int) float64 {
	total := 0.0
	for v := l.Parent; v != nil; v = v.Parent {
		total += extend(v.Schema, l.Schema, otherLeaves(v, l), m.lambda(n), n)
	}
	return total
}

// updateWrites bounds the amortized view writes of one single-tuple update
// (Proposition 27), the worst relation's:
//
//   - its own delta, from every leaf of the relation (base or light part,
//     main and indicator trees), and up to two ∃H changes per indicator it
//     is partitioned under — one when its All tree changes, one when its L
//     tree does — from every reference leaf: w(R);
//   - minor rebalancing: a key moves when its degree reaches 3/2·θ (at
//     most 3/2·θ+1 rows) or falls below ½θ, and the strict repartition of
//     the last major rebalance, or its last move, left it at least ½θ
//     updates away: each move of at most 3/2·θ+1 rows, each as such a
//     delta, is paid by ½θ updates to its key, at most 5 rows per update
//     (θ ≥ 1), once per partition of R: 5·parts(R)·w(R);
//   - major rebalancing stores at most stored(n) after at least n/2
//     updates since the last one: 2·stored(n)/n.
func (m boundsModel) updateWrites(n int) float64 {
	worst := 0.0
	for _, rel := range m.f.Q.RelationNames() {
		w, parts := 0.0, 0
		m.nodes(func(v *viewtree.Node) {
			if (v.Kind == viewtree.Atom || v.Kind == viewtree.LightAtom) && v.Rel == rel {
				w += m.pathWrites(v, n)
			}
		})
		for _, ind := range m.f.Indicators {
			if slices.Contains(ind.Rels, rel) {
				for _, ref := range ind.Refs {
					w += 2 * m.pathWrites(ref, n)
				}
			}
		}
		for _, lp := range m.f.LightParts {
			if lp.Rel == rel {
				parts++
			}
		}
		worst = max(worst, w*float64(1+5*parts))
	}
	return worst + 2*m.stored(n)/float64(n)
}

// delayOps bounds the Work ops between two consecutive rows (Proposition
// 22), first and last included. A heavy key has degree ≥ ½M^ε > ½n^ε, so a
// partition has fewer than h = 2n^(1−ε) heavy keys, and a grounded node —
// one with a ∃H child — grounds a subset of them (Figure 13). The bound
// follows enum.go's ticks: a lookup of a grounded node ticks once per
// matching heavy key and looks its other children up once per key; a
// direct node ticks once; any other multiplies its children's lookups.
// Nested groundings split the keys of one partition rather than multiply
// them, so under any grounded ancestor a node is looked up at most h times
// (lookup below). Within one gap:
//
//   - the top Union over the trees (Figure 15) looks each tree up at most
//     twice: once to test the candidate, once to sum it;
//   - the Union over a grounded node's instances looks each instance up at
//     most twice, at most one lookup of the node;
//   - a grounded node is opened at most twice, by the first row and by a
//     product above it moving on, each time advancing its cursor over at
//     most h+1 keys and opening its instances' nested groundings, at most
//     h+1 more;
//   - every other cursor advances at most twice.
func (m boundsModel) delayOps(n int) float64 {
	h := 2 * math.Pow(float64(n), 1-m.eps)
	grounded := func(v *viewtree.Node) bool {
		return slices.ContainsFunc(v.Children, func(c *viewtree.Node) bool { return c.Kind == viewtree.IndicatorRef })
	}
	direct := func(v *viewtree.Node) bool {
		for _, l := range leaves(v) {
			if l.Kind != viewtree.IndicatorRef && !v.Schema.ContainsAll(l.Schema.Intersect(m.f.Q.Free)) {
				return false
			}
		}
		return true
	}
	// lookup bounds the ticks of one lookup of v, looked up mult times.
	var lookup func(v *viewtree.Node, mult float64) float64
	lookup = func(v *viewtree.Node, mult float64) float64 {
		switch {
		case grounded(v):
			ticks := h
			for _, ch := range v.Children {
				if ch.Kind != viewtree.IndicatorRef {
					ticks += lookup(ch, h)
				}
			}
			return ticks
		case direct(v):
			return mult
		}
		ticks := 0.0
		for _, ch := range v.Children {
			ticks += lookup(ch, mult)
		}
		return ticks
	}
	total := 0.0
	var walk func(v *viewtree.Node)
	walk = func(v *viewtree.Node) {
		total += 2
		if grounded(v) {
			total += 2*lookup(v, 1) + 4*(h+1)
		}
		for _, ch := range v.Children {
			walk(ch)
		}
	}
	for _, t := range m.f.Trees() {
		total += 2 * lookup(t, 1)
		walk(t)
	}
	return total
}

// boundsGen draws the test's databases and updates for any query: a
// variable shared by several atoms is Zipf-skewed over a small domain (a
// few heavy keys, a light tail), any other is uniform over a large one.
type boundsGen struct {
	rnd    *rand.Rand
	rels   []string
	schema map[string]tuple.Schema
	draw   map[tuple.Variable]func() int64
	root   tuple.Variable             // the variable shared by the most atoms
	live   map[string][]tuple.Tuple   // every present row, for deletes
	has    map[string]map[string]bool // the present rows, by fmt.Sprint
	perRel int
}

func newBoundsGen(rnd *rand.Rand, q *query.Query, perRel int) *boundsGen {
	g := &boundsGen{rnd: rnd, rels: q.RelationNames(), schema: map[string]tuple.Schema{},
		draw: map[tuple.Variable]func() int64{}, live: map[string][]tuple.Tuple{}, has: map[string]map[string]bool{}, perRel: perRel}
	for _, a := range q.Atoms {
		g.schema[a.Rel] = a.Vars
		g.has[a.Rel] = map[string]bool{}
	}
	for _, v := range q.Vars() {
		if shared := len(q.AtomsOf(v)); shared > 1 {
			z := rand.NewZipf(rnd, 1.3, 1, uint64(max(2, perRel/4)))
			g.draw[v] = func() int64 { return int64(z.Uint64()) }
			if g.root == "" || shared > len(q.AtomsOf(g.root)) {
				g.root = v
			}
		} else {
			dom := int64(4 * perRel)
			g.draw[v] = func() int64 { return rnd.Int63n(dom) }
		}
	}
	return g
}

// tuple draws a fresh row of rel, with the root variable set to the hot key
// if hot.
func (g *boundsGen) tuple(rel string, hot bool) tuple.Tuple {
	for try := 0; ; try++ {
		t := make(tuple.Tuple, len(g.schema[rel]))
		for i, v := range g.schema[rel] {
			switch {
			case hot && v == g.root:
				t[i] = 1 << 40
			case try < 4:
				t[i] = g.draw[v]()
			default: // the skewed domain is used up, as S(B)'s may be
				t[i] = g.rnd.Int63n(int64(4 * g.perRel))
			}
		}
		if k := fmt.Sprint(t); !g.has[rel][k] {
			g.has[rel][k] = true
			g.live[rel] = append(g.live[rel], t)
			return t
		}
	}
}

// db draws perRel rows per relation.
func (g *boundsGen) db() naive.Database {
	db := naive.Database{}
	for _, rel := range g.rels {
		r := relation.New(rel, g.schema[rel])
		for i := 0; i < g.perRel; i++ {
			r.MustAdd(g.tuple(rel, false), 1)
		}
		db[rel] = r
	}
	return db
}

// insert draws an insert: on the hot key into the relation-th relation, or
// anywhere.
func (g *boundsGen) insert(hot bool, relation int) (string, tuple.Tuple) {
	if rel := g.rels[min(relation, len(g.rels)-1)]; hot && len(g.schema[rel]) > 1 {
		return rel, g.tuple(rel, true)
	}
	rel := g.rels[g.rnd.Intn(len(g.rels))]
	return rel, g.tuple(rel, false)
}

// delete draws a delete of a present row.
func (g *boundsGen) delete() (string, tuple.Tuple) {
	for {
		rel := g.rels[g.rnd.Intn(len(g.rels))]
		live := g.live[rel]
		if len(live) == 0 {
			continue
		}
		i := g.rnd.Intn(len(live))
		t := live[i]
		live[i] = live[len(live)-1]
		g.live[rel] = live[:len(live)-1]
		delete(g.has[rel], fmt.Sprint(t))
		return rel, t
	}
}
