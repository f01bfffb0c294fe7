package ivmeps_test

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ivmeps"
	"ivmeps/internal/core"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

// shardedPair builds an engine from New and one from NewSharded over the
// same query and the same initial load, ready for parallel driving.
func shardedPair(t *testing.T, qs string, k int, rng *rand.Rand, n int, domain int64) (*ivmeps.Engine, *ivmeps.Engine) {
	t.Helper()
	q := ivmeps.MustParseQuery(qs)
	e, err := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ivmeps.NewSharded(q, ivmeps.ShardedOptions{Options: ivmeps.Options{Epsilon: 0.5}, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range q.Relations() {
		arity := len(q.Schema(rel))
		for i := 0; i < n; i++ {
			row := make([]int64, arity)
			for j := range row {
				row[j] = rng.Int63n(domain)
			}
			if err := e.Load(rel, row); err != nil {
				t.Fatal(err)
			}
			if err := s.Load(rel, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return e, s
}

func publicResultMap(enum func(func([]int64, int64) bool)) map[string]int64 {
	out := map[string]int64{}
	enum(func(row []int64, m int64) bool {
		out[fmt.Sprint(row)] = m
		return true
	})
	return out
}

func requireSameResults(t *testing.T, label string, got, want map[string]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result rows, want %d", label, len(got), len(want))
	}
	for k, m := range want {
		if got[k] != m {
			t.Fatalf("%s: row %s has mult %d, want %d", label, k, got[k], m)
		}
	}
}

// TestShardedMatchesEngine drives the same mixed update stream — single
// applies and multi-relation batches — through an engine from New and
// sharded engines at several K, comparing results, N, and snapshot epochs after
// every commit.
func TestShardedMatchesEngine(t *testing.T) {
	const qs = "Q(A, B, C) = R(A, B), S(A, C)"
	for _, k := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			e, s := shardedPair(t, qs, k, rng, 50, 9)
			defer e.Close()
			defer s.Close()
			if s.Shards() != k {
				t.Fatalf("Shards() = %d, want %d", s.Shards(), k)
			}

			requireSameResults(t, "after build", publicResultMap(s.Enumerate), publicResultMap(e.Enumerate))
			if s.N() != e.N() {
				t.Fatalf("N = %d, engine N = %d", s.N(), e.N())
			}

			eb, sb := e.NewBatch(), s.NewBatch()
			for c := 0; c < 5; c++ {
				eb.Reset()
				sb.Reset()
				for i := 0; i < 25; i++ {
					rel := []string{"R", "S"}[rng.Intn(2)]
					row := []int64{rng.Int63n(9), rng.Int63n(9)}
					eb.Insert(rel, row)
					sb.Insert(rel, row)
				}
				if err := e.Commit(eb); err != nil {
					t.Fatal(err)
				}
				if err := s.Commit(sb); err != nil {
					t.Fatal(err)
				}
				row := []int64{rng.Int63n(9), rng.Int63n(9)}
				if err := e.Insert("R", row); err != nil {
					t.Fatal(err)
				}
				if err := s.Insert("R", row); err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, fmt.Sprintf("commit %d", c),
					publicResultMap(s.Enumerate), publicResultMap(e.Enumerate))
				es, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				ss, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if es.Epoch() != ss.Epoch() {
					t.Fatalf("commit %d: sharded epoch %d, engine epoch %d", c, ss.Epoch(), es.Epoch())
				}
				if e.Epoch() != es.Epoch() || s.Epoch() != ss.Epoch() {
					t.Fatalf("commit %d: Epoch() reads %d (engine) and %d (sharded), their snapshots %d and %d",
						c, e.Epoch(), s.Epoch(), es.Epoch(), ss.Epoch())
				}
				requireSameResults(t, fmt.Sprintf("commit %d snapshot", c),
					publicResultMap(ss.Enumerate), publicResultMap(es.Enumerate))
				if ss.Count() != es.Count() {
					t.Fatalf("commit %d: sharded Count %d, engine %d", c, ss.Count(), es.Count())
				}
				es.Close()
				ss.Close()
				if s.N() != e.N() {
					t.Fatalf("commit %d: N = %d, engine N = %d", c, s.N(), e.N())
				}
			}
		})
	}
}

// TestShardedApplyBatchParity covers the one-relation convenience.
func TestShardedApplyBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	e, s := shardedPair(t, "Q(A, B, C) = R(A, B), S(A, C)", 4, rng, 30, 7)
	defer e.Close()
	defer s.Close()
	rows := [][]int64{{1, 2}, {3, 4}, {1, 2}}
	mults := []int64{2, 1, -1}
	if err := e.ApplyBatch("R", rows, mults); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch("R", rows, mults); err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "ApplyBatch", publicResultMap(s.Enumerate), publicResultMap(e.Enumerate))
	if err := s.ApplyBatch("R", rows, []int64{1}); err == nil {
		t.Error("mismatched rows/mults lengths accepted")
	}
}

// TestShardedErrors covers the public error contract of the sharded paths:
// sentinels, structured errors, shard attribution, and all-or-nothing on
// failure.
func TestShardedErrors(t *testing.T) {
	q := ivmeps.MustParseQuery("Q(A, B, C) = R(A, B), S(A, C)")
	s, err := ivmeps.NewSharded(q, ivmeps.ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Insert("R", []int64{1, 2}); !errors.Is(err, ivmeps.ErrNotBuilt) {
		t.Errorf("Insert before Build returned %v, want ErrNotBuilt", err)
	}
	if err := s.Commit(s.NewBatch()); !errors.Is(err, ivmeps.ErrNotBuilt) {
		t.Errorf("Commit before Build returned %v, want ErrNotBuilt", err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, ivmeps.ErrNotBuilt) {
		t.Errorf("Snapshot before Build returned %v, want ErrNotBuilt", err)
	}
	func() {
		defer func() {
			if r := recover(); r != ivmeps.ErrNotBuilt {
				t.Errorf("Enumerate before Build panicked with %v, want ErrNotBuilt", r)
			}
		}()
		s.Enumerate(func([]int64, int64) bool { return true })
	}()
	if err := s.Load("nope", []int64{1}); !errors.Is(err, ivmeps.ErrUnknownRelation) {
		t.Errorf("Load of unknown relation returned %v", err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err == nil {
		t.Error("second Build accepted")
	}

	if err := s.Insert("nope", []int64{1, 2}); !errors.Is(err, ivmeps.ErrUnknownRelation) {
		t.Errorf("Insert into unknown relation returned %v", err)
	}
	var ae *ivmeps.ArityError
	if err := s.Insert("R", []int64{1, 2, 3}); !errors.As(err, &ae) {
		t.Errorf("arity mismatch returned %v, want *ArityError", err)
	} else if ae.Relation != "R" || len(ae.Schema) != 2 {
		t.Errorf("ArityError = %+v", ae)
	}
	// Shard-detected failure: over-delete. The error carries the shard and
	// unwraps to the public MultiplicityError; the engine is unchanged.
	before := publicResultMap(s.Enumerate)
	b := s.NewBatch()
	for v := int64(0); v < 16; v++ {
		b.Insert("R", []int64{v, v})
	}
	b.Apply("S", []int64{77, 77}, -2)
	err = s.Commit(b)
	if err == nil {
		t.Fatal("over-deleting batch accepted")
	}
	var se *ivmeps.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("shard-detected failure returned %T, want *ShardError", err)
	}
	if se.Shard < 0 || se.Shard >= s.Shards() {
		t.Errorf("ShardError.Shard = %d, want in [0, %d)", se.Shard, s.Shards())
	}
	var me *ivmeps.MultiplicityError
	if !errors.As(err, &me) {
		t.Errorf("MultiplicityError not reachable through ShardError: %v", err)
	} else if me.Relation != "S" || me.Have != 0 || me.Delta != -2 {
		t.Errorf("MultiplicityError = %+v", me)
	}
	requireSameResults(t, "failed commit", publicResultMap(s.Enumerate), before)

	// A foreign batch is rejected: engine batches do not commit to sharded
	// engines and vice versa.
	e, err := ivmeps.New(q, ivmeps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(e.NewBatch().Insert("R", []int64{1, 2})); err == nil {
		t.Error("engine-owned batch accepted by sharded Commit")
	}
	if err := e.Commit(s.NewBatch().Insert("R", []int64{1, 2})); err == nil {
		t.Error("sharded-owned batch accepted by engine Commit")
	}
}

// TestShardedShardKey pins the public routing report.
func TestShardedShardKey(t *testing.T) {
	s, err := ivmeps.NewSharded(ivmeps.MustParseQuery("Q(A, B, C) = R(A, B), S(A, C)"),
		ivmeps.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vars, concat := s.ShardKey()
	if len(vars) != 1 || vars[0] != "A" || !concat {
		t.Errorf("ShardKey() = %v concat=%v, want [A] concat=true", vars, concat)
	}
	boolS, err := ivmeps.NewSharded(ivmeps.MustParseQuery("Q() = R(A, B), S(B)"),
		ivmeps.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer boolS.Close()
	if _, concat := boolS.ShardKey(); concat {
		t.Error("Boolean query reported a concatenating gather")
	}
}

// TestShardedEngineSurface pins what the methods beyond the shared
// lifecycle do on a sharded engine (K = 2): no watch stream and no views, no
// durability, an Explain that names the routing, ε from the options, and a
// Close that is idempotent and leaves the engine committing. It also pins
// Shards and ShardKey on an engine from New.
func TestShardedEngineSurface(t *testing.T) {
	e, s := shardedPair(t, "Q(A, B, C) = R(A, B), S(A, C)", 2, rand.New(rand.NewSource(5)), 40, 9)
	defer e.Close()
	defer s.Close()

	if n := e.Shards(); n != 1 {
		t.Errorf("New engine: Shards() = %d, want 1", n)
	}
	if vars, concat := e.ShardKey(); vars != nil || !concat {
		t.Errorf("New engine: ShardKey() = %v, %v, want nil, true", vars, concat)
	}
	if n := s.Shards(); n != 2 {
		t.Errorf("Shards() = %d, want 2", n)
	}

	if w, err := s.Watch(ivmeps.WatchOptions{}); err == nil {
		w.Close()
		t.Error("Watch on a sharded engine succeeded")
	}
	if v := s.Views(); len(v) != 0 {
		t.Errorf("Views() = %v, want none", v)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range append(e.Views(), "nope") {
		if _, err := snap.ViewAll(view); err == nil || !strings.Contains(err.Error(), "unknown view") {
			t.Errorf("ViewAll(%q) = %v, want an unknown-view error", view, err)
		}
		if _, _, err := snap.ViewRows(view); err == nil {
			t.Errorf("ViewRows(%q) succeeded", view)
		}
	}
	snap.Close()

	if err := s.Checkpoint(); err == nil || !strings.Contains(err.Error(), "without durability") {
		t.Errorf("Checkpoint() = %v, want the no-durability error", err)
	}
	x := s.Explain()
	for _, want := range []string{"2 shard(s)", "shard key (A)", "concatenating gather", "shard 0:", "ε = 0.5"} {
		if !strings.Contains(x, want) {
			t.Errorf("Explain() lacks %q:\n%s", want, x)
		}
	}
	if eps := s.Epsilon(); eps != 0.5 {
		t.Errorf("Epsilon() = %v, want 0.5", eps)
	}

	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("Close #%d = %v", i+1, err)
		}
	}
	// A batch spanning both shards restarts the apply goroutines.
	eb, sb := e.NewBatch(), s.NewBatch()
	for v := int64(100); v < 116; v++ {
		eb.Insert("R", []int64{v, 1}).Insert("S", []int64{v, 2})
		sb.Insert("R", []int64{v, 1}).Insert("S", []int64{v, 2})
	}
	if err := e.Commit(eb); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(sb); err != nil {
		t.Fatalf("Commit after Close: %v", err)
	}
	requireSameResults(t, "commit after Close", publicResultMap(s.Enumerate), publicResultMap(e.Enumerate))
}

// TestShardedCommitSteadyStateZeroAllocs pins the public sharded commit
// path — Batch build with id stamping, scatter, two-phase apply across 4
// shards — at zero heap allocations per warm cycle.
func TestShardedCommitSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	_, s := shardedPair(t, "Q(A, B, C) = R(A, B), S(A, C)", 4, rng, 200, 40)
	defer s.Close()
	const rows = 32
	buf := make([][]int64, 2*rows)
	flat := make([]int64, 4*rows)
	for i := range buf {
		buf[i] = flat[2*i : 2*i+2]
	}
	b := s.NewBatch()
	next := int64(9000)
	cycle := func() {
		b.Reset()
		for i := 0; i < rows; i++ {
			r := buf[2*i]
			r[0], r[1] = next, next+1
			b.Insert("R", r)
			r2 := buf[2*i+1]
			r2[0], r2[1] = next, next+2
			b.Insert("S", r2)
			next += 3
		}
		if err := s.Commit(b); err != nil {
			t.Fatal(err)
		}
		b.Reset()
		for i := 0; i < rows; i++ {
			b.Delete("R", buf[2*i])
			b.Delete("S", buf[2*i+1])
		}
		if err := s.Commit(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("steady sharded commit cycle allocates %v per run, want 0", n)
	}
}

// TestAllZeroAllocsPerRow pins the public read path at no allocation per
// row: ranging over All on an engine from New and on one from NewSharded
// (two shards, the concatenating gather) allocates to take its snapshot and open its
// iterators, and a full pass costs less than 0.01 allocations per row more
// than a pass stopped after its first row. internal/core's
// TestEnumerateZeroAllocsPerRow pins the iterators themselves.
func TestAllZeroAllocsPerRow(t *testing.T) {
	e, s := shardedPair(t, "Q(A, B, C) = R(A, B), S(A, C)", 2, rand.New(rand.NewSource(3)), 3000, 300)
	defer e.Close()
	defer s.Close()
	if _, concat := s.ShardKey(); !concat {
		t.Fatal("the star query does not gather by concatenation")
	}
	for _, src := range []struct {
		name string
		all  iter.Seq2[[]int64, int64]
	}{{"Engine", e.All()}, {"Sharded", s.All()}} {
		pass := func(limit int) (rows int) {
			for range src.all {
				if rows++; rows >= limit {
					break
				}
			}
			return rows
		}
		mallocs := func(limit int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pass(limit)
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		rows := pass(1 << 30) // warm
		if rows < 5000 {
			t.Fatalf("%s: only %d rows, too few to resolve 0.01 allocations per row", src.name, rows)
		}
		full, open := mallocs(1<<30), mallocs(1)
		perRow := (float64(full) - float64(open)) / float64(rows)
		t.Logf("%s.All: %d rows, %d allocations to open, %d for a full pass: %.5f per row", src.name, rows, open, full, perRow)
		if perRow >= 0.01 {
			t.Errorf("%s.All: %.4f allocations per row, want < 0.01", src.name, perRow)
		}
	}
}

// TestShardedStatsCountCommitsLikeEngine pins that the commit counters mean
// the same thing on both engines: every entry point is one commit through
// one envelope, so for the same calls a one-shard sharded engine and an
// engine from New report the same Updates, Batches, and BatchRelations — including the
// single-tuple Apply, a zero-mult Apply, and an unknown-relation ApplyBatch
// with no rows, which the two used to treat differently.
func TestShardedStatsCountCommitsLikeEngine(t *testing.T) {
	e, s := shardedPair(t, "Q(A, B, C) = R(A, B), S(A, C)", 1, rand.New(rand.NewSource(3)), 20, 5)
	defer e.Close()
	defer s.Close()
	drive := func(x *ivmeps.Engine) (ivmeps.Stats, []error) {
		b := x.NewBatch().Insert("R", []int64{70, 1}).Insert("S", []int64{70, 2})
		errs := []error{
			x.Apply("R", []int64{71, 1}, 2),
			x.Apply("R", []int64{71, 1}, 0),
			x.ApplyBatch("S", [][]int64{{71, 5}, {71, 6}}, nil),
			x.ApplyBatch("Z", nil, nil),
			x.Commit(b),
		}
		st := x.Stats()
		st.ViewDeltas, st.MinorRebalances, st.MajorRebalances = 0, 0, 0
		return st, errs
	}
	es, eerrs := drive(e)
	ss, serrs := drive(s)
	if es != ss {
		t.Fatalf("stats diverge for the same calls:\nEngine  %+v\nSharded %+v", es, ss)
	}
	if want := (ivmeps.Stats{Updates: 5, Batches: 3, BatchRelations: 4}); es != want {
		t.Fatalf("stats = %+v, want %+v", es, want)
	}
	for i := range eerrs {
		if (eerrs[i] == nil) != (serrs[i] == nil) {
			t.Fatalf("call %d: Engine returned %v, Sharded %v", i, eerrs[i], serrs[i])
		}
	}
	if !errors.Is(eerrs[3], ivmeps.ErrUnknownRelation) {
		t.Fatalf("ApplyBatch on an unknown relation with no rows returned %v", eerrs[3])
	}
}

// loadTargets returns a fresh engine from New and sharded engines at
// K ∈ {1, 2, 4} over qs, closed with the test.
func loadTargets(t *testing.T, qs string) map[string]*ivmeps.Engine {
	t.Helper()
	q := ivmeps.MustParseQuery(qs)
	e, err := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	out := map[string]*ivmeps.Engine{"Engine": e}
	for _, k := range []int{1, 2, 4} {
		s, err := ivmeps.NewSharded(q, ivmeps.ShardedOptions{Options: ivmeps.Options{Epsilon: 0.5}, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		out[fmt.Sprintf("Sharded/K=%d", k)] = s
	}
	return out
}

// TestLoadBuildMatchesPreprocess: rows loaded one by one and built are the
// state core.Preprocess computes from a database of the same rows, with
// every shard's invariants intact — on an engine from New and on sharded
// engines, for a query whose one relation routes each
// row to two shards and for one with a broadcast component.
func TestLoadBuildMatchesPreprocess(t *testing.T) {
	for _, qs := range []string{
		"Q(A, C) = R(A, B), S(B, C)",
		"Q(A, B) = R(A, B), R(B, A)",
		"Q(A, C) = R(A, B), S(C, D)",
	} {
		q := query.MustParse(qs)
		rng := rand.New(rand.NewSource(23))
		db := naive.Database{}
		rows := map[string][][]int64{}
		for _, a := range q.Atoms {
			if db[a.Rel] != nil {
				continue
			}
			db[a.Rel] = relation.New(a.Rel, a.Vars)
			for i := 0; i < 120; i++ { // domain 7: duplicates accumulate multiplicity
				row := []int64{rng.Int63n(7), rng.Int63n(7)}
				rows[a.Rel] = append(rows[a.Rel], row)
				db[a.Rel].MustAdd(tuple.Tuple(row), 1)
			}
		}
		ref, err := core.New(q, core.Options{Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := core.Preprocess(ref, db); err != nil {
			t.Fatal(err)
		}
		want := publicResultMap(func(y func([]int64, int64) bool) {
			ref.Enumerate(func(tu tuple.Tuple, m int64) bool { return y(tu, m) })
		})
		for name, l := range loadTargets(t, qs) {
			for rel, rs := range rows {
				if err := l.Load(rel, rs...); err != nil {
					t.Fatalf("%s on %s: Load: %v", name, qs, err)
				}
			}
			if err := l.Build(); err != nil {
				t.Fatalf("%s on %s: Build: %v", name, qs, err)
			}
			requireSameResults(t, name+" on "+qs, publicResultMap(l.Enumerate), want)
			if l.N() != ref.N() {
				t.Errorf("%s on %s: N = %d, want %d", name, qs, l.N(), ref.N())
			}
			if err := l.CheckInvariants(); err != nil {
				t.Errorf("%s on %s: %v", name, qs, err)
			}
		}
	}
}

// TestLoadErrorParity: engines from New and NewSharded reject the same loads with the
// same programmable errors, a rejected row reaches no occurrence on any
// shard, and accepted duplicates accumulate multiplicity.
func TestLoadErrorParity(t *testing.T) {
	const qs = "Q(A, B) = R(A, B), R(B, A)" // one R row goes to two shards
	for name, l := range loadTargets(t, qs) {
		if err := l.Load("nope", []int64{1, 2}); !errors.Is(err, ivmeps.ErrUnknownRelation) {
			t.Errorf("%s: Load of an unknown relation returned %v", name, err)
		}
		var ae *ivmeps.ArityError
		if err := l.Load("R", []int64{1, 2, 3}); !errors.As(err, &ae) {
			t.Errorf("%s: Load of a 3-column row returned %v, want *ArityError", name, err)
		} else if ae.Relation != "R" || len(ae.Schema) != 2 || len(ae.Row) != 3 {
			t.Errorf("%s: ArityError = %+v", name, ae)
		}
		for _, m := range []int64{0, -2} {
			if err := l.LoadWeighted("R", []int64{1, 2}, m); err == nil {
				t.Errorf("%s: LoadWeighted with multiplicity %d accepted", name, m)
			}
		}
		if err := l.Load("R", []int64{1, 2}, []int64{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := l.LoadWeighted("R", []int64{2, 1}, 3); err != nil {
			t.Fatal(err)
		}
		if err := l.Build(); err != nil {
			t.Fatal(err)
		}
		// Only the accepted rows are there: R(1,2) twice and R(2,1) three times.
		requireSameResults(t, name, publicResultMap(l.Enumerate), map[string]int64{"[1 2]": 6, "[2 1]": 6})
		if l.N() != 2 {
			t.Errorf("%s: N = %d after two distinct rows, want 2", name, l.N())
		}
		if err := l.Load("R", []int64{5, 5}); err == nil {
			t.Errorf("%s: Load after Build accepted", name)
		}
		if err := l.Insert("R", []int64{5, 5}); err != nil {
			t.Errorf("%s: Insert after the refused Load: %v", name, err)
		}
	}
}
