package ivmeps

import (
	"errors"
	"runtime"
	"testing"

	"ivmeps/internal/naive"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

// Tests for the public Batch/Commit surface: builder semantics, atomic
// multi-relation commits, the typed error surface (errors.Is/As for every
// exported error), the documented ErrNotBuilt panics, the iter.Seq2
// enumeration, and the steady-state allocation pin of the commit path.

func mkTwoPath(t testing.TB) *Engine {
	t.Helper()
	q := MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 24; i++ {
		if err := e.Load("R", []int64{i, i % 4}); err != nil {
			t.Fatal(err)
		}
		if err := e.Load("S", []int64{i % 4, i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPublicAPIBatchCommit(t *testing.T) {
	seq, bat := mkTwoPath(t), mkTwoPath(t)

	// A mixed multi-relation stream: inserts and deletes on both R and S,
	// including a delete covered by an earlier insert of the same batch.
	b := bat.NewBatch()
	type op struct {
		rel  string
		row  []int64
		mult int64
	}
	var ops []op
	for i := int64(0); i < 60; i++ {
		ops = append(ops, op{"R", []int64{100 + i%20, i % 5}, 1})
		ops = append(ops, op{"S", []int64{i % 5, 200 + i%11}, 1})
	}
	for i := int64(0); i < 15; i++ {
		ops = append(ops, op{"R", []int64{100 + i%20, i % 5}, -1})
	}
	for _, o := range ops {
		b.Apply(o.rel, o.row, o.mult)
	}
	if b.Len() != len(ops) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(ops))
	}
	for _, o := range ops {
		if err := seq.Apply(o.rel, o.row, o.mult); err != nil {
			t.Fatal(err)
		}
	}
	epochBefore := mustEpoch(t, bat)
	if err := bat.Commit(b); err != nil {
		t.Fatal(err)
	}
	if got := mustEpoch(t, bat); got != epochBefore+1 {
		t.Fatalf("Commit published %d epochs, want exactly 1", got-epochBefore)
	}
	assertSameResult(t, seq, bat)
	if s := bat.Stats(); s.Batches != 1 || s.BatchRelations != 2 {
		t.Fatalf("stats after commit: Batches=%d BatchRelations=%d, want 1/2", s.Batches, s.BatchRelations)
	}

	// Builder chaining and reuse after Reset.
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.Insert("R", []int64{500, 1}).Insert("S", []int64{1, 600}).Delete("R", []int64{500, 1})
	if err := bat.Commit(b); err != nil {
		t.Fatal(err)
	}
	if err := seq.Insert("R", []int64{500, 1}); err != nil {
		t.Fatal(err)
	}
	if err := seq.Insert("S", []int64{1, 600}); err != nil {
		t.Fatal(err)
	}
	if err := seq.Delete("R", []int64{500, 1}); err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, seq, bat)

	// An empty batch is a no-op: no epoch, no counters.
	b.Reset()
	st := bat.Stats()
	e0 := mustEpoch(t, bat)
	if err := bat.Commit(b); err != nil {
		t.Fatal(err)
	}
	if mustEpoch(t, bat) != e0 || bat.Stats().Batches != st.Batches {
		t.Fatal("empty Commit was not a no-op")
	}

	// A nil batch is a no-op, like an empty one.
	if err := bat.Commit(nil); err != nil {
		t.Fatalf("nil batch: %v", err)
	}
	if mustEpoch(t, bat) != e0 {
		t.Fatal("nil Commit published an epoch")
	}
}

func mustEpoch(t *testing.T, e *Engine) uint64 {
	t.Helper()
	s, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return s.Epoch()
}

func assertSameResult(t *testing.T, a, b *Engine) {
	t.Helper()
	ar, am := collect(a.All())
	br, bm := collect(b.All())
	if len(ar) != len(br) {
		t.Fatalf("result sizes differ: %d vs %d", len(ar), len(br))
	}
	type key struct{ x, y int64 }
	want := map[key]int64{}
	for i, r := range ar {
		want[key{r[0], r[1]}] = am[i]
	}
	for i, r := range br {
		if want[key{r[0], r[1]}] != bm[i] {
			t.Fatalf("row %v: mult %d differs from sequential", r, bm[i])
		}
	}
}

// TestCommitErrorLeavesEngineUnchanged checks the cross-relation
// all-or-nothing contract at the public surface: valid ops on R do not
// survive a failing op on S, and the engine — result, N, epoch, stats — is
// untouched.
func TestCommitErrorLeavesEngineUnchanged(t *testing.T) {
	e := mkTwoPath(t)
	rows, mults := collect(e.All())
	n, epoch, st := e.N(), mustEpoch(t, e), e.Stats()

	b := e.NewBatch()
	b.Insert("R", []int64{777, 1})
	b.Insert("S", []int64{1, 888})
	b.Delete("S", []int64{999, 999}) // over-delete: whole batch must fail
	err := e.Commit(b)
	var me *MultiplicityError
	if !errors.As(err, &me) {
		t.Fatalf("Commit returned %T (%v), want *MultiplicityError", err, err)
	}
	if me.Relation != "S" || me.Have != 0 || me.Delta != -1 || me.Row[0] != 999 {
		t.Fatalf("MultiplicityError = %+v", me)
	}
	if e.N() != n || mustEpoch(t, e) != epoch {
		t.Fatal("failed Commit changed N or epoch")
	}
	if s := e.Stats(); s != st {
		t.Fatalf("failed Commit moved stats: %+v vs %+v", s, st)
	}
	rows2, mults2 := collect(e.All())
	if len(rows2) != len(rows) {
		t.Fatalf("failed Commit changed result size: %d vs %d", len(rows2), len(rows))
	}
	for i := range rows {
		if rows2[i][0] != rows[i][0] || rows2[i][1] != rows[i][1] || mults2[i] != mults[i] {
			t.Fatalf("failed Commit changed row %d", i)
		}
	}
}

// TestExportedErrors exercises errors.Is for every sentinel and errors.As
// for every structured type, on each public path that can produce it.
func TestExportedErrors(t *testing.T) {
	q := MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	// ErrNotBuilt, returned.
	if err := e.Apply("R", []int64{1, 2}, 1); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Apply before Build: %v, want ErrNotBuilt", err)
	}
	if err := e.Commit(e.NewBatch().Insert("R", []int64{1, 2})); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Commit before Build: %v, want ErrNotBuilt", err)
	}
	if _, err := e.Snapshot(); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Snapshot before Build: %v, want ErrNotBuilt", err)
	}

	// ErrNotBuilt, panicked by the implicit-snapshot reads (the package's
	// one documented panic).
	for name, call := range map[string]func(){
		"Count": func() { e.Count() },
		"All": func() {
			for range e.All() {
				break
			}
		},
	} {
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || !errors.Is(err, ErrNotBuilt) {
					t.Fatalf("%s before Build panicked with %v, want ErrNotBuilt", name, r)
				}
			}()
			call()
			t.Fatalf("%s before Build did not panic", name)
		}()
	}

	// ErrUnknownRelation: Load before Build, every mutation path after.
	if err := e.Load("Z", []int64{1}); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("Load of unknown relation: %v, want ErrUnknownRelation", err)
	}
	if err := e.Load("R", []int64{1, 10}); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("S", []int64{10, 7}); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply("Z", []int64{1}, 1); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("Apply to unknown relation: %v, want ErrUnknownRelation", err)
	}
	if err := e.Commit(e.NewBatch().Insert("Z", []int64{1})); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("Commit to unknown relation: %v, want ErrUnknownRelation", err)
	}

	// ArityError, with the schema spelled out.
	var ae *ArityError
	err = e.Apply("R", []int64{1, 2, 3}, 1)
	if !errors.As(err, &ae) {
		t.Fatalf("Apply with bad arity: %T (%v), want *ArityError", err, err)
	}
	if ae.Relation != "R" || len(ae.Row) != 3 || len(ae.Schema) != 2 || ae.Schema[0] != "A" {
		t.Fatalf("ArityError = %+v", ae)
	}
	if err := e.Commit(e.NewBatch().Insert("S", []int64{1})); !errors.As(err, &ae) {
		t.Fatalf("Commit with bad arity: %v, want *ArityError", err)
	}

	// MultiplicityError, single-tuple and batch.
	var me *MultiplicityError
	err = e.Delete("R", []int64{404, 404})
	if !errors.As(err, &me) {
		t.Fatalf("over-delete: %T (%v), want *MultiplicityError", err, err)
	}
	if me.Relation != "R" || me.Have != 0 || me.Delta != -1 {
		t.Fatalf("MultiplicityError = %+v", me)
	}
	err = e.Apply("R", []int64{1, 10}, -3)
	if !errors.As(err, &me) || me.Have != 1 || me.Delta != -3 {
		t.Fatalf("over-delete of stored row: %v (%+v)", err, me)
	}
	b := e.NewBatch().Insert("R", []int64{7, 7}).Apply("R", []int64{7, 7}, -2)
	if err := e.Commit(b); !errors.As(err, &me) || me.Have != 1 || me.Delta != -2 {
		t.Fatalf("batch over-delete: %v (%+v), want Have=1 Delta=-2 (insert of the same batch counted)", err, me)
	}

	// ErrStatic.
	st, err := New(q, Options{Static: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Build(); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("R", []int64{1, 2}); !errors.Is(err, ErrStatic) {
		t.Fatalf("Insert on static engine: %v, want ErrStatic", err)
	}
	if err := st.Commit(st.NewBatch().Insert("R", []int64{1, 2})); !errors.Is(err, ErrStatic) {
		t.Fatalf("Commit on static engine: %v, want ErrStatic", err)
	}
}

// TestBatchCommitsToTwoEngines commits one Batch to two engines whose
// queries list the same relations in opposite orders, so R and S have
// different relation ids in each. Both results must equal internal/naive's,
// and Open on the second, durable engine's log must recover its result:
// the log holds that engine's own ids, not the first engine's.
func TestBatchCommitsToTwoEngines(t *testing.T) {
	q1, q2 := MustParseQuery("Q(A) = R(A, B), S(B)"), MustParseQuery("Q(A) = S(B), R(A, B)")
	opts2 := Options{Epsilon: 0.5, Durability: Durability{Dir: t.TempDir(), Sync: SyncAlways}}
	e1, err := New(q1, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(q2, opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	db := naive.Database{}
	for _, a := range q1.q.Atoms {
		db[a.Rel] = relation.New(a.Rel, a.Vars)
	}
	for _, e := range []*Engine{e1, e2} {
		for i := int64(0); i < 12; i++ {
			if err := e.Load("R", []int64{i, i % 3}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Load("S", []int64{0}, []int64{1}); err != nil {
			t.Fatal(err)
		}
		if err := e.Build(); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 12; i++ {
		db["R"].MustAdd(tuple.Tuple{i, i % 3}, 1)
	}
	db["S"].MustAdd(tuple.Tuple{0}, 1)
	db["S"].MustAdd(tuple.Tuple{1}, 1)

	matches := func(what string, e *Engine) {
		t.Helper()
		want := map[int64]int64{}
		naive.MustEval(q1.q, db).ForEach(func(row tuple.Tuple, m int64) { want[row[0]] = m })
		got := map[int64]int64{}
		for row, m := range e.All() {
			got[row[0]] = m
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d result tuples, naive %d", what, len(got), len(want))
		}
		for a, m := range want {
			if got[a] != m {
				t.Fatalf("%s: Q(%d) has mult %d, naive %d", what, a, got[a], m)
			}
		}
	}
	b := e1.NewBatch()
	rounds := [][]struct {
		rel  string
		row  []int64
		mult int64
	}{
		{{"S", []int64{2}, 1}, {"R", []int64{20, 1}, 1}, {"R", []int64{0, 0}, -1}, {"S", []int64{1}, 2}, {"R", []int64{21, 2}, 1}},
		{{"R", []int64{22, 0}, 2}, {"S", []int64{0}, -1}, {"R", []int64{3, 0}, -1}, {"S", []int64{0}, 1}},
	}
	for i, ops := range rounds {
		b.Reset()
		for _, o := range ops {
			b.Apply(o.rel, o.row, o.mult)
			db[o.rel].MustAdd(o.row, o.mult)
		}
		first, second := e1, e2
		if i == 1 {
			first, second = e2, e1
		}
		for _, e := range []*Engine{first, second} {
			if err := e.Commit(b); err != nil {
				t.Fatalf("round %d: Commit to %s: %v", i, e.q, err)
			}
		}
		matches("first engine", e1)
		matches("second engine", e2)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(q2, opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	matches("second engine reopened", r)
}

// TestAllIterator covers the range-over-func enumeration: full iteration
// agrees with internal/naive over mkTwoPath's data, early break works, and
// a Snapshot's All can be ranged repeatedly while the engine moves on.
func TestAllIterator(t *testing.T) {
	e := mkTwoPath(t)
	db := naive.Database{}
	for _, a := range e.q.q.Atoms {
		db[a.Rel] = relation.New(a.Rel, a.Vars)
	}
	for i := int64(0); i < 24; i++ {
		db["R"].MustAdd(tuple.Tuple{i, i % 4}, 1)
		db["S"].MustAdd(tuple.Tuple{i % 4, i}, 1)
	}
	want := map[[2]int64]int64{}
	naive.MustEval(e.q.q, db).ForEach(func(row tuple.Tuple, m int64) {
		want[[2]int64{row[0], row[1]}] = m
	})
	got := map[[2]int64]int64{}
	for row, m := range e.All() {
		got[[2]int64{row[0], row[1]}] = m
	}
	if len(got) != len(want) {
		t.Fatalf("All yielded %d tuples, naive %d", len(got), len(want))
	}
	for k, m := range want {
		if got[k] != m {
			t.Fatalf("tuple %v: All mult %d, naive %d", k, got[k], m)
		}
	}
	n := 0
	for range e.All() {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("early break after %d tuples", n)
	}

	// Snapshot.All is repeatable and pinned to its epoch.
	s, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	count := func() int {
		c := 0
		for range s.All() {
			c++
		}
		return c
	}
	before := count()
	if err := e.Insert("R", []int64{9999, 0}); err != nil {
		t.Fatal(err)
	}
	if count() != before {
		t.Fatal("snapshot iteration changed after an engine update")
	}
	if before != len(want) {
		t.Fatalf("snapshot count %d, want %d", before, len(want))
	}
}

// TestAllBreakUnpins checks that a loop leaving All early pins no
// generation: the implicit snapshot of Engine.All is closed on break, and
// so is an explicit snapshot closed after a break out of its All. A pinned
// generation shows in the next commit, which copies the relations it writes
// out from under the snapshot; a commit with nothing pinned writes in
// place. Each measured commit is the minimum of a few repetitions, so a
// stray runtime allocation does not decide it.
func TestAllBreakUnpins(t *testing.T) {
	e := mkTwoPath(t)
	defer e.Close()
	mult := int64(1)
	commit := func() uint64 { // one commit, toggling a row in and out of R
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.Apply("R", []int64{1000, 0}, mult); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mult = -mult
		return after.Mallocs - before.Mallocs
	}
	least := func(read func()) uint64 { // a read, then the commit after it
		m := ^uint64(0)
		for i := 0; i < 5; i++ {
			read()
			m = min(m, commit())
		}
		return m
	}
	least(func() { // warm the scratch, the tables and the context free list
		for range e.All() {
		}
	})
	var held *Snapshot
	pinned := least(func() {
		if held != nil {
			held.Close()
		}
		held, _ = e.Snapshot()
	})
	held.Close()
	engineBreak := least(func() {
		for range e.All() {
			break
		}
	})
	snapBreak := least(func() {
		s, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for range s.All() {
			break
		}
		s.Close()
	})
	t.Logf("mallocs of the commit after: a held snapshot %d, a break out of Engine.All %d, a break out of Snapshot.All %d",
		pinned, engineBreak, snapBreak)
	if engineBreak >= pinned || snapBreak >= pinned {
		t.Errorf("a break out of All left a generation pinned: the next commit allocates %d (Engine.All) and %d (Snapshot.All), as many as under a held snapshot (%d)",
			engineBreak, snapBreak, pinned)
	}
}

// TestCommitSteadyStateZeroAllocs pins the acceptance criterion that the
// steady-state multi-relation commit path performs no heap allocation: a
// warmed Reset/refill/Commit cycle touching both relations — insert batch
// then inverse delete batch, so the measured loop is state-neutral — must
// report exactly zero allocations per run.
func TestCommitSteadyStateZeroAllocs(t *testing.T) {
	e := mkTwoPath(t)
	defer e.Close()

	const rowsPerRel = 16
	var rRows, sRows [][]int64
	for i := int64(0); i < rowsPerRel; i++ {
		rRows = append(rRows, []int64{3000 + i, i % 4})
		sRows = append(sRows, []int64{i % 4, 4000 + i})
	}
	b := e.NewBatch()
	fill := func(mult int64) {
		b.Reset()
		for i := range rRows {
			b.Apply("R", rRows[i], mult)
			b.Apply("S", sRows[i], mult)
		}
	}
	cycle := func() {
		fill(1)
		if err := e.Commit(b); err != nil {
			t.Fatal(err)
		}
		fill(-1)
		if err := e.Commit(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle() // warm the pooled scratch, arenas, and table capacities
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("steady-state multi-relation commit cycle allocates %v per run, want 0", n)
	}
}
