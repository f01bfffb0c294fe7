package federation

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ivmeps/internal/core"
	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// TestCommitHook holds the coordinator's commit hook, at K ∈ {1, 2}, to its
// four rules: it sees the federation epoch the commit will publish and the
// caller's whole op list, every RelID resolved, before any shard writes; a
// commit without an op of nonzero multiplicity is not logged; a hook error
// leaves every shard's state and epoch untouched; and the latch then refuses
// every later commit, through both entry points, with the hook removed too.
func TestCommitHook(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	names := q.RelationNames()
	op := func(rel string, mult int64, row ...tuple.Value) core.BatchOp {
		return core.BatchOp{Rel: rel, Row: tuple.Tuple(row), Mult: mult}
	}
	commits := [][]core.BatchOp{
		{op("R", 1, 100, 7)},
		{op("S", 2, 7, 200)},
		{op("R", 1, 101, 7), op("R", 3, 102, 7), op("R", 1, 101, 7)},
		{op("R", -1, 100, 7)},
		{op("S", 1, 8, 201), op("S", -1, 8, 201), op("S", 1, 7, 202), op("R", 0, 1, 1)},
	}
	unlogged := [][]core.BatchOp{{op("R", 0, 9, 9)}, nil, {op("R", -1, 555, 555)}}
	entries := []struct {
		name   string
		commit func(f *Fed, ops []core.BatchOp) error
	}{
		{"Update", func(f *Fed, ops []core.BatchOp) error { return f.Update(ops[0].Rel, ops[0].Row, ops[0].Mult) }},
		{"CommitBatch", (*Fed).CommitBatch},
	}
	for _, k := range []int{1, 2} {
		for _, en := range entries {
			t.Run(fmt.Sprintf("K=%d/%s", k, en.name), func(t *testing.T) {
				eopts := core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5}
				f, err := New(q, Options{Shards: k, Engine: eopts})
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				ref, err := core.New(q, eopts)
				if err != nil {
					t.Fatal(err)
				}
				db := randomDB(q, rand.New(rand.NewSource(41)), 40, 6)
				if err := core.Preprocess(ref, db.Clone()); err != nil {
					t.Fatal(err)
				}
				if err := preprocess(f, db); err != nil {
					t.Fatal(err)
				}
				// stored is a row's multiplicity summed over the shards: both
				// relations are partitioned.
				stored := func(rel string, row tuple.Tuple) (m int64) {
					for s := range f.Shards() {
						m += f.Shard(s).BaseRelation(rel).Mult(row)
					}
					return m
				}
				var want []core.BatchOp
				calls := 0
				var hookErr error
				f.SetHook(func(epoch uint64, ops []core.BatchOp) error {
					calls++
					if epoch != f.epoch+1 {
						t.Errorf("hook saw epoch %d, want %d", epoch, f.epoch+1)
					}
					if len(ops) != len(want) || en.name == "CommitBatch" && &ops[0] != &want[0] {
						t.Errorf("hook saw %v, not the caller's op list %v", ops, want)
					}
					for i, op := range ops {
						if op.RelID < 1 || op.RelID > len(names) || names[op.RelID-1] != op.Rel {
							t.Errorf("hook saw op on %s with unresolved RelID %d", op.Rel, op.RelID)
						}
						if op.Rel != want[i].Rel || !op.Row.Equal(want[i].Row) || op.Mult != want[i].Mult {
							t.Errorf("hook saw op %d = %+v, want %+v", i, op, want[i])
						}
						// ref is the reference state before this commit.
						if have, want := stored(op.Rel, op.Row), ref.BaseRelation(op.Rel).Mult(op.Row); have != want {
							t.Errorf("hook ran after a shard wrote: %s%v has mult %d, want %d", op.Rel, op.Row, have, want)
						}
					}
					return hookErr
				})
				// commit runs ops through the entry point and checks that it
				// was logged once and published one epoch, or — with logged
				// false — neither.
				commit := func(label string, ops []core.BatchOp, logged bool) error {
					t.Helper()
					if en.name == "Update" && len(ops) != 1 {
						return nil
					}
					want = ops
					epoch, before := f.Epoch(), calls
					err := en.commit(f, ops)
					if logged != (calls == before+1) || calls > before+1 {
						t.Fatalf("%s: %d hook calls, want logged = %v", label, calls-before, logged)
					}
					if logged && err == nil {
						epoch++
						if err := ref.CommitBatch(ops); err != nil {
							t.Fatal(err)
						}
					}
					if f.Epoch() != epoch {
						t.Fatalf("%s: epoch %d, want %d", label, f.Epoch(), epoch)
					}
					sameResultMap(t, label, liveResult(f), resultMap(ref.Enumerate))
					return err
				}
				for i, ops := range commits {
					if err := commit(fmt.Sprintf("commit %d", i), ops, true); err != nil {
						t.Fatal(err)
					}
					for j, ops := range unlogged {
						commit(fmt.Sprintf("after commit %d: unlogged %d", i, j), ops, false)
					}
				}

				// A failing hook fails the commit with every shard untouched.
				wedged := errors.New("log wedged")
				hookErr = wedged
				shardEpochs := func() (out []uint64) {
					for s := range f.Shards() {
						out = append(out, f.Shard(s).Epoch())
					}
					return out
				}
				before, n := shardEpochs(), f.N()
				valid := []core.BatchOp{op("R", 1, 300, 7)}
				if err := commit("failing hook", valid, true); err != wedged {
					t.Fatalf("failing hook: commit returned %v, want the hook's error", err)
				}
				if after := shardEpochs(); fmt.Sprint(after) != fmt.Sprint(before) || f.N() != n {
					t.Fatalf("failing hook: shard epochs %v N %d, want %v %d", after, f.N(), before, n)
				}
				for s := range f.Shards() {
					if err := f.Shard(s).CheckInvariants(); err != nil {
						t.Fatalf("shard %d: %v", s, err)
					}
				}

				// The latch refuses every later commit before validation, and
				// outlives the hook.
				hookErr = nil
				for _, h := range []CommitHook{f.hook, nil} {
					f.SetHook(h)
					for _, e := range entries {
						if err := e.commit(f, valid); err != wedged {
							t.Errorf("%s on a degraded federation returned %v, want the hook's error", e.name, err)
						}
					}
					f.Degrade(errors.New("later"))
					if _, _, err := f.BaseState(); err == nil || k == 1 && err != wedged {
						t.Errorf("BaseState on a degraded federation returned %v", err)
					}
				}
				sameResultMap(t, "degraded", liveResult(f), resultMap(ref.Enumerate))
			})
		}
	}
}
