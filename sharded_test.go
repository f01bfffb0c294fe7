package ivmeps_test

import (
	"errors"
	"fmt"
	"iter"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ivmeps"
)

// TestShardedMatchesEngine drives a mixed update stream — single applies
// and multi-relation batches, and at K = 1 watchers opening, closing and
// stalling — through sharded engines at several K; the scenario driver
// holds the result, N and the epoch to naive after every commit, and every
// watcher's fold to the root views. The star query's shard streams
// concatenate; the two-path query's, whose shard key is bound, overlap and
// are unioned.
func TestShardedMatchesEngine(t *testing.T) {
	for _, tg := range []target{{query: star, shards: 1}, {query: star, shards: 3}, {query: star, shards: 8},
		{query: twoPath, shards: 3}, {query: twoPath, shards: 8}} {
		name := fmt.Sprintf("K=%d", tg.shards)
		if tg.query == twoPath {
			name = "two-path/" + name
		}
		t.Run(name, func(t *testing.T) {
			tg.eps = 0.5
			sc := newScenario(t, tg, 17)
			g := gen{mix: map[string]int{"batch": 4, "apply": 4, "watch": 1, "close": 1, "stall": 1}, load: 50, ops: 25, domain: 9}
			sc.load(g)
			if n := sc.eng.Shards(); n != tg.shards {
				t.Fatalf("Shards() = %d, want %d", n, tg.shards)
			}
			sc.gen(g, 20)
			sc.end()
		})
	}
}

// TestShardedApplyBatchParity covers a one-relation batch reused across
// commits.
func TestShardedApplyBatchParity(t *testing.T) {
	sc := newScenario(t, target{query: star, eps: 0.5, shards: 4}, 31)
	sc.load(gen{load: 30, domain: 7})
	sc.run(step{Do: "applybatch", Ops: []op{{"R", []int64{1, 2}, 2}, {"R", []int64{3, 4}, 1}, {"R", []int64{1, 2}, -1}}},
		step{Do: "applybatch", Ops: []op{{"R", []int64{3, 4}, -1}, {"R", []int64{5, 6}, 1}}})
	sc.end()
}

// TestShardedErrors covers the public error contract of the sharded paths:
// sentinels, structured errors, shard attribution, and all-or-nothing on
// failure.
func TestShardedErrors(t *testing.T) {
	q := ivmeps.MustParseQuery(star)
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
				t.Errorf("All before Build panicked with %v, want ErrNotBuilt", r)
			}
		}()
		for range s.All() {
		}
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
	before, _ := bag(s.All())
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
	after, _ := bag(s.All())
	if err := diff(after, before); err != nil {
		t.Errorf("the failed commit changed the result: %v", err)
	}
}

// TestShardedErrorParity: on a query whose relation occurs twice, a sharded
// engine rejects a delete of an absent row — by Apply and in a committed
// batch —, a row of the wrong arity and an unknown relation with the error
// one shard returns: the same Relation, the query's and not an occurrence's,
// and the same text after the "shard s: " a shard-detected error carries.
func TestShardedErrorParity(t *testing.T) {
	engines := loadTargets(t, "Q(A, B) = R(A, B), R(B, A)")
	for _, e := range engines {
		if err := e.Load("R", []int64{1, 2}, []int64{2, 1}); err != nil {
			t.Fatal(err)
		}
		if err := e.Build(); err != nil {
			t.Fatal(err)
		}
	}
	shardOf := regexp.MustCompile(`^ivmeps: shard \d+: `)
	for _, c := range []struct {
		name string
		do   func(*ivmeps.Engine) error
	}{
		{"Apply", func(e *ivmeps.Engine) error { return e.Delete("R", []int64{5, 6}) }},
		{"Commit", func(e *ivmeps.Engine) error {
			return e.Commit(e.NewBatch().Insert("R", []int64{7, 8}).Delete("R", []int64{5, 6}))
		}},
		{"arity", func(e *ivmeps.Engine) error { return e.Insert("R", []int64{1, 2, 3}) }},
		{"unknown", func(e *ivmeps.Engine) error { return e.Insert("nope", []int64{1, 2}) }},
	} {
		want := c.do(engines["Sharded/K=1"])
		if want == nil {
			t.Fatalf("%s: accepted on one shard", c.name)
		}
		for name, e := range engines {
			err := c.do(e)
			if err == nil {
				t.Errorf("%s on %s: accepted", c.name, name)
				continue
			}
			if got := shardOf.ReplaceAllString(err.Error(), ""); got != want.Error() {
				t.Errorf("%s on %s: %q, want %q after any shard attribution", c.name, name, err, want)
			}
			var me *ivmeps.MultiplicityError
			var ae *ivmeps.ArityError
			if errors.As(err, &me) && me.Relation != "R" || errors.As(err, &ae) && ae.Relation != "R" {
				t.Errorf("%s on %s: %v names a relation other than R", c.name, name, err)
			}
		}
	}
}

// TestOneShardIsNew pins that NewSharded with Shards ≤ 1 builds the engine
// New does — on a query with a repeated relation symbol, which one shard
// does not rename: the same Explain and Views, Shards 1, and both take
// Durability and Watch.
func TestOneShardIsNew(t *testing.T) {
	q := ivmeps.MustParseQuery("Q(A, B) = R(A, B), R(B, A)")
	build := func(name string, shards int) *ivmeps.Engine {
		opts := ivmeps.ShardedOptions{Options: ivmeps.Options{Epsilon: 0.5, Durability: ivmeps.Durability{Dir: t.TempDir()}}, Shards: shards}
		var e *ivmeps.Engine
		var err error
		if shards < 0 {
			e, err = ivmeps.New(q, opts.Options)
		} else {
			e, err = ivmeps.NewSharded(q, opts)
		}
		if err != nil {
			t.Fatalf("%s with Durability: %v", name, err)
		}
		t.Cleanup(func() { e.Close() })
		if err := e.Load("R", []int64{1, 2}, []int64{2, 1}, []int64{2, 3}); err != nil {
			t.Fatal(err)
		}
		if err := e.Build(); err != nil {
			t.Fatal(err)
		}
		if n := e.Shards(); n != 1 {
			t.Errorf("%s: Shards() = %d, want 1", name, n)
		}
		w, err := e.Watch(ivmeps.WatchOptions{})
		if err != nil {
			t.Fatalf("%s: Watch: %v", name, err)
		}
		defer w.Close()
		if err := e.Insert("R", []int64{3, 2}); err != nil {
			t.Fatal(err)
		}
		for ev, err := range w.Events() {
			if err != nil || ev.Epoch != w.Snapshot().Epoch()+1 || len(ev.Deltas) == 0 {
				t.Errorf("%s: first event %+v, %v after the anchor at epoch %d", name, ev, err, w.Snapshot().Epoch())
			}
			break
		}
		w.Snapshot().Close()
		if err := e.Checkpoint(); err != nil {
			t.Errorf("%s: Checkpoint: %v", name, err)
		}
		return e
	}
	ref := build("New", -1)
	for _, shards := range []int{0, 1} {
		name := fmt.Sprintf("NewSharded(Shards: %d)", shards)
		e := build(name, shards)
		if x, want := e.Explain(), ref.Explain(); x != want {
			t.Errorf("%s: Explain() =\n%s\nwant New's\n%s", name, x, want)
		}
		if v, want := e.Views(), ref.Views(); !slices.Equal(v, want) {
			t.Errorf("%s: Views() = %v, want New's %v", name, v, want)
		}
	}
}

// TestShardedShardKey pins the layout report, Explain's first line: a
// free root variable is the key and the gather concatenates; a bound root
// is the key of the two-atom query, and of the Boolean query, which has no
// free variable, and the gather unions.
func TestShardedShardKey(t *testing.T) {
	for q, want := range map[string]string{
		"Q(A, B, C) = R(A, B), S(A, C)": "federation: 2 shard(s), shard key (A), concatenating gather",
		"Q(B, C) = R(A, B), S(A, C)":    "federation: 2 shard(s), shard key (A), union gather",
		"Q() = R(A, B), S(B)":           "federation: 2 shard(s), shard key (B), union gather",
	} {
		s, err := ivmeps.NewSharded(ivmeps.MustParseQuery(q), ivmeps.ShardedOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got, _, _ := strings.Cut(s.Explain(), "\n"); got != want {
			t.Errorf("%s: Explain's first line %q, want %q", q, got, want)
		}
		s.Close()
	}
}

// TestShardedEngineSurface pins what the methods beyond the shared
// lifecycle do on a sharded engine (K = 2): no watch stream and no views, no
// durability, an Explain that names the routing, ε from the options, and a
// Close that is idempotent and leaves the engine committing. It also pins
// Shards on an engine from New.
func TestShardedEngineSurface(t *testing.T) {
	e, s := built(t, target{query: star, eps: 0.5}, 5, 40, 9), built(t, target{query: star, eps: 0.5, shards: 2}, 5, 40, 9)

	if n := e.Shards(); n != 1 {
		t.Errorf("New engine: Shards() = %d, want 1", n)
	}
	if n := s.Shards(); n != 2 {
		t.Errorf("Shards() = %d, want 2", n)
	}

	for _, opts := range []ivmeps.WatchOptions{{}, {Views: e.Views()[:1]}} {
		w, err := s.Watch(opts)
		if err == nil {
			w.Close()
		}
		if want := "ivmeps: Watch needs one shard, not 2"; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Watch(%+v) on a sharded engine = %v, want %q", opts, err, want)
		}
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
	sr, _ := bag(s.All())
	er, _ := bag(e.All())
	if err := diff(sr, er); err != nil {
		t.Errorf("commit after Close: %v", err)
	}
}

// TestShardedCommitSteadyStateZeroAllocs pins the public sharded commit
// path — Batch build with id stamping, scatter, two-phase apply across 4
// shards — at zero heap allocations per warm cycle. Every cycle takes fresh
// keys, but as many per shard, so each shard's sub-batch has the same size
// every cycle whatever seed routes them: a shard handed more rows than ever
// before grows its pooled scratch once.
func TestShardedCommitSteadyStateZeroAllocs(t *testing.T) {
	s := built(t, target{query: star, eps: 0.5, shards: 4}, 43, 200, 40)
	const rows = 32
	buf := make([][]int64, 2*rows)
	flat := make([]int64, 4*rows)
	for i := range buf {
		buf[i] = flat[2*i : 2*i+2]
	}
	b := s.NewBatch()
	next := int64(9000)
	perShard := make([]int, s.Shards())
	cycle := func() {
		b.Reset()
		clear(perShard)
		for i := 0; i < rows; next += 3 {
			r := buf[2*i]
			r[0], r[1] = next, next+1
			if sh := s.ShardOf("R", r); perShard[sh] == rows/len(perShard) {
				continue // S's row routes by the same A
			} else {
				perShard[sh]++
			}
			b.Insert("R", r)
			r2 := buf[2*i+1]
			r2[0], r2[1] = next, next+2
			b.Insert("S", r2)
			i++
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
// (two shards, the concatenating gather) allocates a few handles to take its
// snapshot and open its iterators, whose trees the engine reuses from the
// previous pass, and a full pass costs less than 0.001 allocations per row
// more than a pass stopped after its first row. The two-path query, whose
// shard key is bound, reads the same on New, on one shard, which has
// nothing to gather, and on two, whose streams are unioned.
// internal/core's TestEnumerateZeroAllocsPerRow pins the iterators
// themselves.
func TestAllZeroAllocsPerRow(t *testing.T) {
	e, s := built(t, target{query: star, eps: 0.5}, 3, 3000, 300), built(t, target{query: star, eps: 0.5, shards: 2}, 3, 3000, 300)
	p, p1 := built(t, target{query: twoPath, eps: 0.5}, 3, 3000, 300), built(t, target{query: twoPath, eps: 0.5, shards: 1}, 3, 3000, 300)
	p2 := built(t, target{query: twoPath, eps: 0.5, shards: 2}, 3, 3000, 300)
	for _, src := range []struct {
		name    string
		all     iter.Seq2[[]int64, int64]
		maxOpen uint64
	}{{"Engine", e.All(), 5}, {"Sharded", s.All(), 8}, {"two-path Engine", p.All(), 5}, {"two-path one shard", p1.All(), 5},
		{"two-path Sharded", p2.All(), 8}} {
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
			t.Fatalf("%s: only %d rows, too few to resolve 0.001 allocations per row", src.name, rows)
		}
		full, open := mallocs(1<<30), mallocs(1)
		perRow := (float64(full) - float64(open)) / float64(rows)
		t.Logf("%s.All: %d rows, %d allocations to open, %d for a full pass: %.5f per row", src.name, rows, open, full, perRow)
		if perRow >= 0.001 {
			t.Errorf("%s.All: %.5f allocations per row, want < 0.001", src.name, perRow)
		}
		if open > src.maxOpen {
			t.Errorf("%s.All: %d allocations to open, want at most %d", src.name, open, src.maxOpen)
		}
	}
}

// TestApplyThenAllZeroAllocs pins the read at a new epoch: after a commit,
// opening All and taking its first row allocates nothing, on an engine from
// New, on a two-shard one, and on the two-path query, whose bound shard key
// has one shard gather nothing and two union their streams, from New, from
// one shard and from two. The implicit
// snapshot lives on the reader's stack, and each shard's capture re-pins the
// frozen handles of the context the last read freed.
func TestApplyThenAllZeroAllocs(t *testing.T) {
	for _, tg := range []target{{query: star, eps: 0.5}, {query: star, eps: 0.5, shards: 2},
		{query: twoPath, eps: 0.5}, {query: twoPath, eps: 0.5, shards: 1}, {query: twoPath, eps: 0.5, shards: 2}} {
		e := built(t, tg, 3, 3000, 300)
		var row []int64
		for r := range e.All() {
			row = slices.Clone(r) // A and B of a row of R: Q's head is A, B, C
			break
		}
		sign := int64(1)
		cycle := func() {
			if err := e.Apply("R", row[:2], sign); err != nil {
				t.Fatal(err)
			}
			sign = -sign
			for range e.All() {
				break
			}
		}
		for i := 0; i < 4; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("%s, shards=%d: Apply, then the first row of All, allocates %v times, want 0", tg.query, tg.shards, n)
		}
	}
}

// TestShardedStatsCountCommitsLikeEngine pins that the commit counters mean
// the same thing on both engines: every entry point is one commit through
// one envelope, so for the same calls a one-shard sharded engine and an
// engine from New report the same Updates, Batches, and BatchRelations — including the
// single-tuple Apply, a zero-mult Apply, and a batch whose one op is a
// zero-mult op on an unknown relation.
func TestShardedStatsCountCommitsLikeEngine(t *testing.T) {
	e, s := built(t, target{query: star, eps: 0.5}, 3, 20, 5), built(t, target{query: star, eps: 0.5, shards: 1}, 3, 20, 5)
	drive := func(x *ivmeps.Engine) (ivmeps.Stats, []error) {
		b := x.NewBatch().Insert("R", []int64{70, 1}).Insert("S", []int64{70, 2})
		errs := []error{
			x.Apply("R", []int64{71, 1}, 2),
			x.Apply("R", []int64{71, 1}, 0),
			x.Commit(x.NewBatch().Insert("S", []int64{71, 5}).Insert("S", []int64{71, 6})),
			x.Commit(x.NewBatch().Apply("Z", nil, 0)),
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
		t.Fatalf("a zero-mult op on an unknown relation returned %v", eerrs[3])
	}
}

// TestLoadRowLiteralZeroAllocs: loading a row literal allocates nothing once
// the base columns have room — no layer keeps the caller's row or formats it
// outside an error — on an engine from New and at every shard count.
func TestLoadRowLiteralZeroAllocs(t *testing.T) {
	for name, l := range loadTargets(t, "Q(A, B) = R(A, B), R(B, A)") {
		i := int64(0)
		load := func() {
			i++
			if err := l.Load("R", []int64{i % 5, i % 3}); err != nil {
				t.Fatal(err)
			}
		}
		for range 1000 { // room for the measured rows
			load()
		}
		if n := testing.AllocsPerRun(100, load); n != 0 {
			t.Errorf("%s: Load of a row literal allocates %v times, want 0", name, n)
		}
	}
}

// loadTargets returns a fresh engine from New and sharded engines at
// K ∈ {1, 2, 4} over qs, closed with the test.
func loadTargets(t *testing.T, qs string) map[string]*ivmeps.Engine {
	t.Helper()
	return optTargets(t, qs, ivmeps.Options{Epsilon: 0.5})
}

// optTargets is loadTargets with the engines' options.
func optTargets(t *testing.T, qs string, opts ivmeps.Options) map[string]*ivmeps.Engine {
	t.Helper()
	q := ivmeps.MustParseQuery(qs)
	e, err := ivmeps.New(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	out := map[string]*ivmeps.Engine{"Engine": e}
	for _, k := range []int{1, 2, 4} {
		s, err := ivmeps.NewSharded(q, ivmeps.ShardedOptions{Options: opts, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		out[fmt.Sprintf("Sharded/K=%d", k)] = s
	}
	return out
}

// TestStaticRefusalParity: an engine built with Options.Static refuses
// every write — Insert, Delete, a zero-multiplicity Apply, an empty Commit
// and a Commit — with ErrStatic and one message naming the option, from New
// and at every shard count, attributed to no shard, and its result stays
// as built.
func TestStaticRefusalParity(t *testing.T) {
	want := ""
	for name, e := range optTargets(t, "Q(A, B) = R(A, B), R(B, A)", ivmeps.Options{Epsilon: 0.5, Static: true}) {
		if err := e.Load("R", []int64{1, 2}, []int64{2, 1}); err != nil {
			t.Fatal(err)
		}
		if err := e.Build(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			do   func() error
		}{
			{"Insert", func() error { return e.Insert("R", []int64{5, 6}) }},
			{"Delete", func() error { return e.Delete("R", []int64{1, 2}) }},
			{"zero-mult Apply", func() error { return e.Apply("R", []int64{5, 6}, 0) }},
			{"empty Commit", func() error { return e.Commit(e.NewBatch()) }},
			{"Commit", func() error { return e.Commit(e.NewBatch().Insert("R", []int64{5, 6}).Delete("R", []int64{1, 2})) }},
		} {
			err := c.do()
			var se *ivmeps.ShardError
			switch {
			case !errors.Is(err, ivmeps.ErrStatic):
				t.Errorf("%s %s: %v, want ErrStatic", name, c.name, err)
			case errors.As(err, &se):
				t.Errorf("%s %s: %v names a shard", name, c.name, err)
			case want == "":
				want = err.Error()
			case err.Error() != want:
				t.Errorf("%s %s: %q, want %q", name, c.name, err, want)
			}
		}
		if got, _ := bag(e.All()); diff(got, state{"[1 2]": 1, "[2 1]": 1}) != nil {
			t.Errorf("%s: result %v after refused writes, want the built one", name, got)
		}
	}
	if !strings.Contains(want, "Options.Static") {
		t.Errorf("static refusal %q does not name Options.Static", want)
	}
}

// TestLoadMultiplicityText pins the text of a non-positive load
// multiplicity, from New and at every shard count before Build.
func TestLoadMultiplicityText(t *testing.T) {
	for name, l := range loadTargets(t, "Q(A, B) = R(A, B), R(B, A)") {
		for _, m := range []int64{0, -2} {
			want := fmt.Sprintf("ivmeps: relation R: row [1 2] has non-positive multiplicity %d", m)
			if err := l.LoadWeighted("R", []int64{1, 2}, m); err == nil || err.Error() != want {
				t.Errorf("%s: LoadWeighted with multiplicity %d: %v, want %q", name, m, err, want)
			}
		}
	}
}

// TestLoadBuildMatchesPreprocess: rows loaded one by one and built are
// naive's result, with N and every shard's invariants intact — on an engine
// from New and on sharded engines, for a query whose one relation routes
// each row to two shards and for one with a broadcast component.
func TestLoadBuildMatchesPreprocess(t *testing.T) {
	for _, qs := range []string{twoPath, "Q(A, B) = R(A, B), R(B, A)", "Q(A, C) = R(A, B), S(C, D)"} {
		for _, k := range []int{0, 1, 2, 4} {
			sc := newScenario(t, target{query: qs, eps: 0.5, shards: k}, 23)
			sc.load(gen{load: 120, domain: 7}) // duplicates accumulate multiplicity
			sc.end()
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
		// Rows of one length load as one block: all 3-column, the first is
		// the ArityError, as it is loaded alone.
		if err := l.Load("R", []int64{1, 2, 3}, []int64{4, 5, 6}); !errors.As(err, &ae) {
			t.Errorf("%s: Load of two 3-column rows returned %v, want *ArityError", name, err)
		} else if !slices.Equal(ae.Row, []int64{1, 2, 3}) {
			t.Errorf("%s: ArityError of a block = %+v, want its first row", name, ae)
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
		if got, _ := bag(l.All()); diff(got, state{"[1 2]": 6, "[2 1]": 6}) != nil {
			t.Errorf("%s: result %v, want R(1,2) twice and R(2,1) three times, joined", name, got)
		}
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

// TestLoadManyRowsNotAtomic pins what Load's documentation says: a call of
// many rows loads them one by one, so when a row is rejected the rows before
// it stay loaded and the rows after it are not — on an engine from New and
// at every shard count.
func TestLoadManyRowsNotAtomic(t *testing.T) {
	for name, l := range loadTargets(t, "Q(A, B) = R(A, B), R(B, A)") {
		var ae *ivmeps.ArityError
		if err := l.Load("R", []int64{1, 2}, []int64{2, 1}, []int64{1, 2, 3}, []int64{3, 3}); !errors.As(err, &ae) {
			t.Errorf("%s: Load with a 3-column third row returned %v, want *ArityError", name, err)
		}
		if err := l.Build(); err != nil {
			t.Fatal(err)
		}
		if got, _ := bag(l.All()); diff(got, state{"[1 2]": 1, "[2 1]": 1}) != nil {
			t.Errorf("%s: result %v, want the two rows before the rejected one, joined", name, got)
		}
		if l.N() != 2 {
			t.Errorf("%s: N = %d, want the 2 rows before the rejected one", name, l.N())
		}
	}
}
