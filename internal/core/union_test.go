package core

import (
	"math/rand"
	"sort"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// fakeIter is a synthetic resultIter over a fixed set of single-variable
// tuples, binding one engine slot. It lets the Union and Product algorithms
// (Figures 15 and 16) be tested in isolation from view trees.
type fakeIter struct {
	e    *enumCtx
	slot int
	rows []weighted // distinct tuples of arity 1
	pos  int
}

func (f *fakeIter) open() { f.pos = 0 }

func (f *fakeIter) next() (int64, bool) {
	if f.pos >= len(f.rows) {
		return 0, false
	}
	w := f.rows[f.pos]
	f.pos++
	f.e.bind[f.slot] = w.t[0]
	f.e.bound[f.slot] = true
	return w.m, true
}

func (f *fakeIter) lookup() int64 {
	v := f.e.bind[f.slot]
	for _, w := range f.rows {
		if w.t[0] == v {
			return w.m
		}
	}
	return 0
}

func (f *fakeIter) rebind() {
	if f.pos > 0 {
		f.e.bind[f.slot] = f.rows[f.pos-1].t[0]
		f.e.bound[f.slot] = true
	}
}

func (f *fakeIter) close() { f.e.bound[f.slot] = false }

func fakeEngine(slots int) *enumCtx {
	return &enumCtx{bind: make([]tuple.Value, slots), bound: make([]bool, slots)}
}

// TestUnionAlgorithmSynthetic checks the Figure 15 semantics directly:
// distinct tuples, multiplicities summed across all operands, regardless of
// overlap pattern and operand order.
func TestUnionAlgorithmSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	e := fakeEngine(1)
	for trial := 0; trial < 500; trial++ {
		nOps := 1 + rng.Intn(5)
		want := map[tuple.Value]int64{}
		var subs []resultIter
		for i := 0; i < nOps; i++ {
			n := rng.Intn(6)
			seen := map[tuple.Value]bool{}
			f := &fakeIter{e: e, slot: 0}
			for j := 0; j < n; j++ {
				v := tuple.Value(rng.Intn(8))
				if seen[v] {
					continue
				}
				seen[v] = true
				m := int64(1 + rng.Intn(4))
				f.rows = append(f.rows, weighted{t: tuple.Tuple{v}, m: m})
				want[v] += m
			}
			// Shuffle stream order.
			rng.Shuffle(len(f.rows), func(a, b int) { f.rows[a], f.rows[b] = f.rows[b], f.rows[a] })
			subs = append(subs, f)
		}
		u := newUnion(subs)
		u.open()
		got := map[tuple.Value]int64{}
		for {
			m, ok := u.next()
			if !ok {
				break
			}
			v := e.bind[0]
			if _, dup := got[v]; dup {
				t.Fatalf("trial %d: duplicate emission of %d", trial, v)
			}
			got[v] = m
		}
		u.close()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d distinct, want %d (got %v want %v)", trial, len(got), len(want), got, want)
		}
		for v, m := range want {
			if got[v] != m {
				t.Fatalf("trial %d: value %d multiplicity %d, want %d", trial, v, got[v], m)
			}
		}
	}
}

// TestProductAlgorithmSynthetic checks the Figure 16 odometer: all
// combinations, multiplied multiplicities, working resets.
func TestProductAlgorithmSynthetic(t *testing.T) {
	e := fakeEngine(3)
	mk := func(slot int, vals ...int64) *fakeIter {
		f := &fakeIter{e: e, slot: slot}
		for _, v := range vals {
			f.rows = append(f.rows, weighted{t: tuple.Tuple{v}, m: v})
		}
		return f
	}
	p := newProd([]resultIter{mk(0, 1, 2), mk(1, 3), mk(2, 5, 7)})
	p.open()
	type combo [3]int64
	got := map[combo]int64{}
	for {
		m, ok := p.next()
		if !ok {
			break
		}
		c := combo{e.bind[0], e.bind[1], e.bind[2]}
		if _, dup := got[c]; dup {
			t.Fatalf("duplicate combo %v", c)
		}
		got[c] = m
	}
	p.close()
	if len(got) != 4 {
		t.Fatalf("combos = %d, want 4: %v", len(got), got)
	}
	for c, m := range got {
		if m != c[0]*c[1]*c[2] {
			t.Fatalf("combo %v multiplicity %d", c, m)
		}
	}

	// Empty operand → empty product.
	p2 := newProd([]resultIter{mk(0, 1), mk(1)})
	p2.open()
	if _, ok := p2.next(); ok {
		t.Fatalf("product with empty operand emitted")
	}

	// Zero operands → single empty tuple with multiplicity 1.
	p3 := newProd(nil)
	p3.open()
	if m, ok := p3.next(); !ok || m != 1 {
		t.Fatalf("empty product = (%d, %v)", m, ok)
	}
	if _, ok := p3.next(); ok {
		t.Fatalf("empty product emitted twice")
	}
}

// TestUnionOfProductsInterleaving reproduces the binding-staleness shape at
// the algorithm level: two products over shared slots joined by a union
// must not leak one operand's bindings into the other's resumption.
func TestUnionOfProductsInterleaving(t *testing.T) {
	e := fakeEngine(2)
	mkP := func(avals, bvals []int64) resultIter {
		fa := &fakeIter{e: e, slot: 0}
		for _, v := range avals {
			fa.rows = append(fa.rows, weighted{t: tuple.Tuple{v}, m: 1})
		}
		fb := &fakeIter{e: e, slot: 1}
		for _, v := range bvals {
			fb.rows = append(fb.rows, weighted{t: tuple.Tuple{v}, m: 1})
		}
		return newProdAsIter(fa, fb)
	}
	u := newUnion([]resultIter{mkP([]int64{1, 2}, []int64{10, 11}), mkP([]int64{2, 3}, []int64{11, 12})})
	u.open()
	var got [][2]int64
	for {
		_, ok := u.next()
		if !ok {
			break
		}
		got = append(got, [2]int64{e.bind[0], e.bind[1]})
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i][0] != got[j][0] {
			return got[i][0] < got[j][0]
		}
		return got[i][1] < got[j][1]
	})
	want := [][2]int64{{1, 10}, {1, 11}, {2, 10}, {2, 11}, {2, 12}, {3, 11}, {3, 12}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// newProdAsIter wraps a product of fakes as a resultIter whose lookup is
// the product of operand lookups (the shape nodeIter uses).
type prodWrap struct{ p *prodIter }

func newProdAsIter(subs ...resultIter) resultIter {
	return &prodWrap{p: newProd(subs)}
}

func (w *prodWrap) open()               { w.p.open() }
func (w *prodWrap) next() (int64, bool) { return w.p.next() }
func (w *prodWrap) lookup() int64       { return w.p.lookup() }
func (w *prodWrap) rebind()             { w.p.rebind() }
func (w *prodWrap) close()              { w.p.close() }

// TestIteratorLookupInterleaved holds Iterator.Lookup, which the federation's
// union over shard iterators calls between their Next calls, to the result:
// before every Next, the lookups of a row of the result (the one just read
// among them) and of a row absent from it return their multiplicities, and
// the stream stays the one an undisturbed pass yields, row for row — on the
// multi-tree query, whose components union their trees, on one grounded at
// heavy keys of a bound variable, and on the paper's catalog, at ε ∈ {0, 0.5,
// 1}. The pass opens through Snapshot.ResultInto.
func TestIteratorLookupInterleaved(t *testing.T) {
	type row struct {
		t tuple.Tuple
		m int64
	}
	for _, qs := range append([]string{multiTreeQuery, "Q(B, C) = R(A, B), S(A, C)"}, paperQueries...) {
		for _, eps := range []float64{0, 0.5, 1} {
			q := query.MustParse(qs)
			e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if err := Preprocess(e, randomDB(q, rand.New(rand.NewSource(9)), 60, 8)); err != nil {
				t.Fatal(err)
			}
			var want []row
			e.Enumerate(func(tu tuple.Tuple, m int64) bool {
				want = append(want, row{tu.Clone(), m})
				return true
			})
			if len(want) == 0 {
				t.Fatalf("%s, eps=%v: empty result", qs, eps)
			}
			absent := make(tuple.Tuple, len(q.Free))
			for i := range absent {
				absent[i] = 1 << 40
			}
			s := e.Snapshot()
			var it Iterator
			s.ResultInto(&it)
			rng := rand.New(rand.NewSource(4))
			for i := 0; ; i++ {
				for _, r := range []row{want[rng.Intn(len(want))], want[max(i-1, 0)]} {
					if m := it.Lookup(r.t); m != r.m {
						t.Fatalf("%s, eps=%v, before row %d: Lookup(%v) = %d, want %d", qs, eps, i, r.t, m, r.m)
					}
				}
				if m := it.Lookup(absent); len(absent) > 0 && m != 0 {
					t.Fatalf("%s, eps=%v, before row %d: Lookup(%v) = %d, want 0", qs, eps, i, absent, m)
				}
				tu, m, ok := it.Next()
				if i == len(want) {
					if ok {
						t.Fatalf("%s, eps=%v: row %d %v beyond the undisturbed pass's %d", qs, eps, i, tu, len(want))
					}
					break
				}
				if !ok || !tu.Equal(want[i].t) || m != want[i].m {
					t.Fatalf("%s, eps=%v: row %d is %v × %d (ok %v), want %v × %d", qs, eps, i, tu, m, ok, want[i].t, want[i].m)
				}
			}
			it.Close()
			s.Close()
		}
	}
}
