package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// TestIndexBackedViews holds every index-backed view — a view read off the
// bucket sums of its leaf's index, with no relation of its own — to what a
// materialized one would hold, on the star, the two-path join, the
// multi-tree query, the self-join and a star whose index keys the view's
// variables in another order (its delta rows then come in the key's order,
// rowSchema), over weighted loads and commits of one
// row and of many that insert rows of multiplicity above one, merge into
// stored rows, take some out in part and some to zero, and cross major
// rebalances. After every commit each such view's lookup of every key is the
// sum MustAdd of its leaf's rows onto the key leaves (checkBacked), the result
// is naive's and the invariants hold; and a snapshot taken before the commit
// still reads the sums and the result it pinned.
func TestIndexBackedViews(t *testing.T) {
	permuted := 0
	for _, qs := range []string{
		"Q(A, B, C) = R(A, B), S(A, C)",
		"Q(A, C) = R(A, B), S(B, C)",
		multiTreeQuery,
		"Q(A, C) = R(A, B), R(B, C)",
		"Q(A, B, C, D) = R(B, A, C), S(A, B, D)", // V(A, B)[R(B, A, C)] reads R's index on (B, A)
	} {
		q := query.MustParse(qs)
		rng := rand.New(rand.NewSource(65))
		db := randomDB(q, rng, 60, 8)
		e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := Preprocess(e, db.Clone()); err != nil {
			t.Fatal(err)
		}
		backed, flips := 0, 0
		for id := range e.info {
			if n := e.info[id].node; e.info[id].sumKey != nil {
				backed++
				if n.Exists {
					flips++
				}
				if !e.info[id].sumKey.Equal(n.Schema) {
					permuted++
				}
			}
		}
		if backed == 0 {
			t.Fatalf("%s: no view is index-backed", qs)
		}
		checkBacked(t, e, qs+" after Preprocess")

		var rels []string
		for _, a := range q.Atoms {
			if !slices.Contains(rels, a.Rel) {
				rels = append(rels, a.Rel)
			}
		}
		start := e.Stats().MajorRebalances
		for round := 0; round < 50; round++ {
			size := []int{1, 1, 4, 30, 120}[rng.Intn(5)]
			if round >= 20 && round < 30 {
				size = 300 // grow past a doubling of M, then shrink back
			}
			var ops []BatchOp
			for range size {
				rel := rels[rng.Intn(len(rels))]
				r := db[rel]
				op := BatchOp{Rel: rel}
				switch k := rng.Intn(4); {
				case r.Size() > 0 && (k == 0 || round >= 30 && k < 3):
					// A stored row, taken to zero or by part of it.
					tu, m := r.At(nthEntry(r, rng.Intn(r.Size())))
					op.Row, op.Mult = tu.Clone(), -m
					if m > 1 && rng.Intn(2) == 0 {
						op.Mult = -1 - rng.Int63n(m-1)
					}
				default:
					// A row of small values: often one stored already, which it merges into.
					op.Row = make(tuple.Tuple, len(r.Schema()))
					for j := range op.Row {
						op.Row[j] = tuple.Value(rng.Int63n(8 + int64(round)))
					}
					op.Mult = 1 + rng.Int63n(3)
				}
				r.MustAdd(op.Row, op.Mult)
				ops = append(ops, op)
			}
			stage := fmt.Sprintf("%s, commit %d (%d ops)", qs, round, len(ops))
			s := e.Snapshot()
			pinned := snapshotSums(e, s)
			pinnedResult := s.resultMap()
			if err := e.CommitBatch(ops); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			for id, ref := range pinned {
				ix := s.ctx.sums[id]
				ref.ForEach(func(key tuple.Tuple, m int64) {
					if got := ix.Sum(key); got != m {
						t.Fatalf("%s: the snapshot's %s reads %d for %v after the commit, %d before", stage, e.info[id].node.Name, got, key, m)
					}
				})
				if ix.DistinctKeys() != ref.Size() {
					t.Fatalf("%s: the snapshot's %s has %d keys after the commit, %d before", stage, e.info[id].node.Name, ix.DistinctKeys(), ref.Size())
				}
			}
			sameResultMap(t, stage+": the snapshot taken before it", s.resultMap(), pinnedResult)
			s.Close()
			checkBacked(t, e, stage)
			sameResult(t, stage, e, db)
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
		}
		if e.Stats().MajorRebalances-start < 2 {
			t.Errorf("%s: %d major rebalances, want the grow and the shrink", qs, e.Stats().MajorRebalances-start)
		}
		t.Logf("%s: %d index-backed view nodes, %d of them ∃-children; %d major rebalances", qs, backed, flips, e.Stats().MajorRebalances-start)
	}
	if permuted == 0 {
		t.Error("no index-backed view reads an index keyed in another order")
	}
}

// nthEntry returns the id of r's i-th entry in insertion order.
func nthEntry(r *relation.Relation, i int) relation.ID {
	id := r.First()
	for ; i > 0; i-- {
		id = r.Next(id)
	}
	return id
}

// resultMap enumerates the snapshot's result into a map by tuple.
func (s *Snapshot) resultMap() map[string]int64 {
	out := map[string]int64{}
	s.Enumerate(func(t tuple.Tuple, m int64) bool {
		out[fmt.Sprint(t)] += m
		return true
	})
	return out
}

// backedRef is the reference of the index-backed view node id: MustAdd of
// the rows of its leaf's relation, projected onto the key of the index it is
// read off, into an empty relation.
func backedRef(e *Engine, id int) *relation.Relation {
	key, leaf := e.info[id].sumKey, e.rels[e.info[id].node.Children[0].ID]
	proj := tuple.MustProjection(leaf.Schema(), key)
	ref := relation.New(e.info[id].node.Name, key)
	leaf.ForEach(func(tu tuple.Tuple, m int64) { ref.MustAdd(proj.Apply(tu), m) })
	return ref
}

// checkBacked holds every index-backed view node of e to its reference
// (backedRef) through its lookups: each key's sum, a key the leaf does not
// hold, and the number of keys.
func checkBacked(t *testing.T, e *Engine, stage string) {
	t.Helper()
	for id := range e.info {
		if e.info[id].sumKey == nil {
			continue
		}
		ix, ref, name := e.sumIx[id], backedRef(e, id), e.info[id].node.Name
		ref.ForEach(func(key tuple.Tuple, m int64) {
			if got := ix.Sum(key); got != m {
				t.Fatalf("%s: index-backed %s reads %d for %v, MustAdd of its leaf %d", stage, name, got, key, m)
			}
		})
		absent := make(tuple.Tuple, len(e.info[id].sumKey))
		for i := range absent {
			absent[i] = -1
		}
		if got := ix.Sum(absent); got != 0 || ix.DistinctKeys() != ref.Size() {
			t.Fatalf("%s: index-backed %s reads %d for an absent key and has %d keys, MustAdd of its leaf %d", stage, name, got, ix.DistinctKeys(), ref.Size())
		}
	}
}

// snapshotSums returns, by node ID, the reference (backedRef) of every
// index-backed node the snapshot s reads — the main trees' — as it stands
// when s is taken.
func snapshotSums(e *Engine, s *Snapshot) map[int]*relation.Relation {
	out := map[int]*relation.Relation{}
	for id, ix := range s.ctx.sums {
		if ix != nil {
			out[id] = backedRef(e, id)
		}
	}
	return out
}
