package federation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ivmeps/internal/core"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// aggregateQuery's shard key is its one bound variable A: at K > 1 the
// shards' streams overlap, and the gather is the union of them.
const aggregateQuery = "Q(B, C) = R(A, B), S(A, C)"

// zipfAggregate is a skewed instance of aggregateQuery: n rows per relation,
// A drawn from a Zipf distribution, so some A values are heavy at ε = 0.5.
func zipfAggregate(seed int64, n int) naive.Database {
	q := query.MustParse(aggregateQuery)
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(n))
	db := naive.Database{}
	for _, name := range []string{"R", "S"} {
		r := relation.New(name, q.Atoms[len(db)].Vars)
		for r.Size() < n {
			r.Set(tuple.Tuple{int64(z.Uint64()), rng.Int63n(int64(n))}, 1)
		}
		db[name] = r
	}
	return db
}

// TestUnionDelay holds the K > 1 gather to Proposition 22's O(N^(1−ε))
// delay, counted as Bagan–Durand–Grandjean do from the start of the pass:
// the ops (cursor advances and lookups, core's Work) of all shards between
// calling Enumerate and each of the first limit rows. On the aggregate query
// at ε = 0.5 and K ∈ {2, 4}, the worst gap is at most 2K times one shard's on
// the same database, and it grows with N by no more than N^(1−ε) with
// TestDelayBoundScaling's slack.
func TestUnionDelay(t *testing.T) {
	const n1, n2, limit = 1000, 8000, 4000 // growth factor 8
	const eps, slack = 0.5, 6.0
	q := query.MustParse(aggregateQuery)
	worstGap := func(db naive.Database, k int) int64 {
		f, err := New(q, Options{Shards: k, Engine: core.Options{Mode: viewtree.Static, Epsilon: eps}})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := preprocess(f, db); err != nil {
			t.Fatal(err)
		}
		s := f.Snapshot()
		defer s.Close()
		work := func() int64 {
			w := s.s0.Work()
			for i := 0; s.rest != nil && i < len(s.rest.s); i++ {
				w += s.rest.s[i].Work()
			}
			return w
		}
		last, worst, rows := work(), int64(0), 0
		s.Enumerate(func(tuple.Tuple, int64) bool {
			now := work()
			worst, last = max(worst, now-last), now
			rows++
			return rows < limit
		})
		if rows < limit {
			t.Fatalf("K=%d: %d rows, want at least %d", k, rows, limit)
		}
		return worst
	}
	gaps := map[int][2]int64{}
	for i, n := range []int{n1, n2} {
		db := zipfAggregate(61, n)
		one := worstGap(db, 1)
		for _, k := range []int{2, 4} {
			g := gaps[k]
			g[i] = worstGap(db, k)
			gaps[k] = g
			t.Logf("N=%d per relation, K=%d: worst gap %d ops (K=1: %d)", n, k, g[i], one)
			if g[i] > 2*int64(k)*one {
				t.Errorf("N=%d, K=%d: worst gap %d ops, more than 2K × one shard's %d", n, k, g[i], one)
			}
		}
	}
	allowed := math.Pow(float64(n2)/float64(n1), 1-eps) * slack
	for _, k := range []int{2, 4} {
		ratio := float64(gaps[k][1]) / float64(gaps[k][0])
		if ratio > allowed {
			t.Errorf("K=%d: worst gap grew faster than O(N^(1-ε)): ratio %.2f > %.2f", k, ratio, allowed)
		}
	}
}

// TestNestedPasses opens full passes inside a pass on one K = 2 snapshot of
// the aggregate query: each inner pass reads the whole result, and the outer
// pass then goes on to read it all too.
func TestNestedPasses(t *testing.T) {
	q := query.MustParse(aggregateQuery)
	f, err := New(q, Options{Shards: 2, Engine: core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := preprocess(f, randomDB(q, rand.New(rand.NewSource(3)), 80, 20)); err != nil {
		t.Fatal(err)
	}
	s := f.Snapshot()
	defer s.Close()
	want := resultMap(s.Enumerate)
	if len(want) < 100 {
		t.Fatalf("%d result tuples, too few to nest in", len(want))
	}
	rows := 0
	outer := resultMap(func(yield func(tuple.Tuple, int64) bool) {
		s.Enumerate(func(row tuple.Tuple, m int64) bool {
			if !yield(row, m) {
				return false
			}
			if rows++; rows%40 == 1 {
				sameResultMap(t, fmt.Sprintf("pass nested at row %d", rows), resultMap(s.Enumerate), want)
			}
			return true
		})
	})
	sameResultMap(t, "outer pass", outer, want)
	sameResultMap(t, "pass after the nested ones", resultMap(s.Enumerate), want)
}
