package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// Tests for the commit envelope: the multi-relation CommitBatch against
// the interleaved sequential Update stream, bit-identity with the
// per-relation batch decomposition, the all-or-nothing error contract
// across relations, the typed errors, and (TestCommitEnvelope) the one
// envelope behind all four entry points.

// randomOps builds a mixed multi-relation op stream against the live
// contents of e: per relation it builds a randomBatch (deletes covered by
// stored multiplicity plus earlier ops of the same relation), then merges
// the per-relation streams in random order, preserving each relation's
// internal order — so the interleaved sequential replay and the batch
// validation accept exactly the same streams.
func randomOps(rng *rand.Rand, e *Engine, q *query.Query, perRel int, domain int64) []BatchOp {
	var streams [][]BatchOp
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		if seen[a.Rel] {
			continue
		}
		seen[a.Rel] = true
		rows, mults := randomBatch(rng, e, a.Rel, len(a.Vars), perRel, domain)
		ops := make([]BatchOp, len(rows))
		for i := range rows {
			ops[i] = BatchOp{Rel: a.Rel, Row: rows[i], Mult: mults[i]}
		}
		streams = append(streams, ops)
	}
	var merged []BatchOp
	for {
		live := streams[:0]
		for _, s := range streams {
			if len(s) > 0 {
				live = append(live, s)
			}
		}
		streams = live
		if len(streams) == 0 {
			return merged
		}
		i := rng.Intn(len(streams))
		merged = append(merged, streams[i][0])
		streams[i] = streams[i][1:]
	}
}

// TestCommitBatchMatchesInterleavedSequential is the multi-relation
// observational-equivalence property test: a CommitBatch over an op stream
// interleaving all relations of the query must enumerate the same result,
// agree on N, and keep the invariants of the same stream applied op by op
// with Update. Each seed draws its own database and op stream.
func TestCommitBatchMatchesInterleavedSequential(t *testing.T) {
	queries := []string{
		"Q(A, C) = R(A, B), S(B, C)",
		"Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)",
		multiTreeQuery,
		sharedViewsQuery,
	}
	for _, qs := range queries {
		for _, seed := range []int64{1, 2, 8} {
			for _, eps := range []float64{0, 0.5} {
				t.Run(fmt.Sprintf("%s/seed=%d/eps=%v", qs, seed, eps), func(t *testing.T) {
					testCommitBatchMatchesInterleavedSequential(t, qs, seed, eps)
				})
			}
		}
	}
}

func testCommitBatchMatchesInterleavedSequential(t *testing.T, qs string, seed int64, eps float64) {
	q := query.MustParse(qs)
	rng := rand.New(rand.NewSource(7000*seed + int64(eps*10)))
	db := randomDB(q, rng, 30, 5)
	seq, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	com, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(seq, db.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(com, db.Clone()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		perRel := 25
		if round%3 == 2 {
			perRel = 60 // cross a rebalance threshold mid-run
		}
		ops := randomOps(rng, seq, q, perRel, 6+int64(round))
		for _, op := range ops {
			if err := seq.Update(op.Rel, op.Row, op.Mult); err != nil {
				t.Fatalf("round %d: sequential update: %v", round, err)
			}
		}
		before := com.Epoch()
		if err := com.CommitBatch(ops); err != nil {
			t.Fatalf("round %d: commit: %v", round, err)
		}
		if got := com.Epoch(); got != before+1 {
			t.Fatalf("round %d: commit published %d epochs, want exactly 1", round, got-before)
		}
		sameEngines(t, fmt.Sprintf("round %d", round), seq, com)
		if seq.N() != com.N() {
			t.Fatalf("round %d: N diverged: sequential %d, commit %d", round, seq.N(), com.N())
		}
		if err := seq.CheckInvariants(); err != nil {
			t.Fatalf("round %d: sequential invariants: %v", round, err)
		}
		if err := com.CheckInvariants(); err != nil {
			t.Fatalf("round %d: commit invariants: %v", round, err)
		}
	}
}

// viewsByName lists every materialized view of the engine (main and
// indicator trees) under its forest-unique name.
func (e *Engine) viewsByName() map[string]*relation.Relation {
	out := map[string]*relation.Relation{}
	for id := range e.info {
		if n := e.info[id].node; n.Kind == viewtree.View {
			out[n.Name] = e.rels[id]
		}
	}
	return out
}

// sameViews asserts full per-view bit-identity of two engines (every
// materialized view, not only the enumerated result).
func sameViews(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	bv := b.viewsByName()
	for name, v := range a.viewsByName() {
		ov := bv[name]
		if ov == nil || ov.Size() != v.Size() {
			t.Fatalf("%s: view %s differs (size %d vs %v)", label, name, v.Size(), ov)
		}
		mismatch := false
		v.ForEach(func(tu tuple.Tuple, m int64) {
			if ov.Mult(tu) != m {
				mismatch = true
			}
		})
		if mismatch {
			t.Fatalf("%s: view %s multiplicities differ", label, name)
		}
	}
}

// TestCommitBatchEquivalentToPerRelationBatches pins the decomposition the
// commit documentation promises: one multi-relation CommitBatch leaves the
// engine bit-identical (every view) to the same ops split into one batch
// per relation, issued in the commit's first-touched order — the
// relation-major schedule is not just observably equivalent but the same
// maintenance computation.
func TestCommitBatchEquivalentToPerRelationBatches(t *testing.T) {
	q := query.MustParse(multiTreeQuery)
	rng := rand.New(rand.NewSource(271))
	db := randomDB(q, rng, 40, 5)
	com, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	split, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(com, db.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(split, db.Clone()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		ops := randomOps(rng, com, q, 40, 6)
		if err := com.CommitBatch(ops); err != nil {
			t.Fatal(err)
		}
		// Replay per relation in first-touched order on the split engine.
		var order []string
		byRel := map[string][]BatchOp{}
		for _, op := range ops {
			if byRel[op.Rel] == nil {
				order = append(order, op.Rel)
			}
			byRel[op.Rel] = append(byRel[op.Rel], op)
		}
		for _, rel := range order {
			var rows []tuple.Tuple
			var mults []int64
			for _, op := range byRel[rel] {
				rows = append(rows, op.Row)
				mults = append(mults, op.Mult)
			}
			if err := applyBatch(split, rel, rows, mults); err != nil {
				t.Fatal(err)
			}
		}
		sameViews(t, fmt.Sprintf("round %d", round), com, split)
		if com.N() != split.N() || com.ThresholdBase() != split.ThresholdBase() {
			t.Fatalf("round %d: N/M diverged: %d/%d vs %d/%d",
				round, com.N(), com.ThresholdBase(), split.N(), split.ThresholdBase())
		}
	}
}

// TestCommitBatchValidation checks the all-or-nothing contract across
// relations: a batch whose later op fails validation leaves the engine
// completely unchanged — result, N, and epoch — no matter how many valid
// ops on other relations preceded it, and reports the typed error.
func TestCommitBatchValidation(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, randomDB(q, rand.New(rand.NewSource(7)), 20, 4)); err != nil {
		t.Fatal(err)
	}
	before := e.ResultRelation()
	nBefore, epochBefore := e.N(), e.Epoch()
	statsBefore := e.Stats()

	check := func(wantErr string, ops []BatchOp, match func(error) bool) {
		t.Helper()
		err := e.CommitBatch(ops)
		if err == nil {
			t.Fatalf("%s batch accepted", wantErr)
		}
		if match != nil && !match(err) {
			t.Fatalf("%s batch returned wrong error type: %v", wantErr, err)
		}
		if e.N() != nBefore || e.Epoch() != epochBefore {
			t.Fatalf("%s batch changed engine: N %d→%d epoch %d→%d",
				wantErr, nBefore, e.N(), epochBefore, e.Epoch())
		}
		after := e.ResultRelation()
		if after.Size() != before.Size() {
			t.Fatalf("%s batch changed result: %d → %d tuples", wantErr, before.Size(), after.Size())
		}
	}

	// Over-delete on S after valid ops on R and S.
	check("over-delete", []BatchOp{
		{Rel: "R", Row: tuple.Tuple{100, 100}, Mult: 1},
		{Rel: "S", Row: tuple.Tuple{100, 101}, Mult: 2},
		{Rel: "S", Row: tuple.Tuple{999, 999}, Mult: -1},
	}, func(err error) bool {
		var me *relation.MultiplicityError
		return errors.As(err, &me) && me.Relation == "S" && me.Have == 0 && me.Delta == -1
	})
	// Arity mismatch on the second relation.
	check("arity", []BatchOp{
		{Rel: "R", Row: tuple.Tuple{1, 2}, Mult: 1},
		{Rel: "S", Row: tuple.Tuple{1, 2, 3}, Mult: 1},
	}, func(err error) bool {
		var ae *relation.ArityError
		return errors.As(err, &ae) && ae.Relation == "S"
	})
	// Unknown relation after valid ops.
	check("unknown-relation", []BatchOp{
		{Rel: "R", Row: tuple.Tuple{1, 2}, Mult: 1},
		{Rel: "Z", Row: tuple.Tuple{1}, Mult: 1},
	}, func(err error) bool { return errors.Is(err, ErrUnknownRelation) })

	if s := e.Stats(); s.Batches != statsBefore.Batches || s.Updates != statsBefore.Updates {
		t.Fatalf("failed batches moved counters: %+v vs %+v", s, statsBefore)
	}

	// Zero-mult ops are no-ops but still validated: an unknown relation or
	// a wrong arity behind Mult: 0 must not slip through.
	check("zero-mult-unknown-relation", []BatchOp{
		{Rel: "Z", Row: tuple.Tuple{1}, Mult: 0},
	}, func(err error) bool { return errors.Is(err, ErrUnknownRelation) })
	check("zero-mult-arity", []BatchOp{
		{Rel: "R", Row: tuple.Tuple{1, 2, 3}, Mult: 0},
	}, func(err error) bool {
		var ae *relation.ArityError
		return errors.As(err, &ae)
	})

	// A delete on one relation covered by an earlier insert of the same
	// batch commits, spanning relations atomically. R's ops net to zero, so
	// only S counts toward the batch's relation fan-out.
	ops := []BatchOp{
		{Rel: "R", Row: tuple.Tuple{55, 56}, Mult: 1},
		{Rel: "S", Row: tuple.Tuple{56, 57}, Mult: 1},
		{Rel: "R", Row: tuple.Tuple{55, 56}, Mult: -1},
	}
	if err := e.CommitBatch(ops); err != nil {
		t.Fatalf("valid multi-relation batch rejected: %v", err)
	}
	if e.Epoch() != epochBefore+1 {
		t.Fatalf("commit published %d epochs, want 1", e.Epoch()-epochBefore)
	}
	s := e.Stats()
	if s.Batches != statsBefore.Batches+1 || s.BatchRelations != statsBefore.BatchRelations+1 {
		t.Fatalf("stats after commit: Batches %d→%d BatchRelations %d→%d, want +1/+1 (R nets to zero)",
			statsBefore.Batches, s.Batches, statsBefore.BatchRelations, s.BatchRelations)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Empty commit: a no-op that publishes nothing.
	if err := e.CommitBatch(nil); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != epochBefore+1 {
		t.Fatal("empty commit published an epoch")
	}
}

// TestCommitBatchTypedSentinels covers the sentinels of the commit path:
// ErrNotBuilt before Preprocess and ErrStatic on a static-mode engine.
func TestCommitBatchTypedSentinels(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ops := []BatchOp{{Rel: "R", Row: tuple.Tuple{1, 2}, Mult: 1}}
	if err := e.CommitBatch(ops); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("CommitBatch before Preprocess: %v, want ErrNotBuilt", err)
	}
	if err := e.Update("R", tuple.Tuple{1, 2}, 1); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Update before Preprocess: %v, want ErrNotBuilt", err)
	}

	st, err := New(q, Options{Mode: viewtree.Static, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(st, randomDB(q, rand.New(rand.NewSource(3)), 10, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitBatch(ops); !errors.Is(err, ErrStatic) {
		t.Fatalf("CommitBatch on static engine: %v, want ErrStatic", err)
	}
	if err := st.Update("R", tuple.Tuple{1, 2}, 1); !errors.Is(err, ErrStatic) {
		t.Fatalf("Update on static engine: %v, want ErrStatic", err)
	}
}

// sinkFunc adapts a func to CommitSink.
type sinkFunc func(cd *CommitDelta)

func (f sinkFunc) PublishCommit(cd *CommitDelta) { f(cd) }

// countSink counts the records the engine hands it and remembers the last
// epoch.
type countSink struct {
	n    int
	last uint64
}

func (c *countSink) PublishCommit(cd *CommitDelta) { c.n++; c.last = cd.Epoch }

// TestCommitSinksAreIndependent subscribes two sinks: each receives every
// commit while it is subscribed, unsubscribing one leaves the other
// receiving, UnsubscribeCommits is idempotent, and once the last sink
// leaves capture is disarmed and nobody is published to.
func TestCommitSinksAreIndependent(t *testing.T) {
	e, err := New(query.MustParse("Q(A, B) = R(A, B)"), Options{Mode: viewtree.Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if err := Preprocess(e, nil); err != nil {
		t.Fatal(err)
	}
	a, b := &countSink{}, &countSink{}
	for _, s := range []*countSink{a, b} {
		var held Snapshot
		if err := e.SubscribeCommits(s, &held); err != nil {
			t.Fatal(err)
		}
		held.Close()
	}
	base := e.Epoch()
	update := func(i int64) {
		t.Helper()
		if err := e.Update("R", tuple.Tuple{i, i}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 3; i++ {
		update(i)
	}
	if a.n != 3 || a.last != base+3 || b.n != 3 || b.last != base+3 {
		t.Fatalf("sinks saw %+v and %+v, want 3 records up to epoch %d each", a, b, base+3)
	}
	e.UnsubscribeCommits(a)
	e.UnsubscribeCommits(a) // idempotent
	update(4)
	if a.n != 3 || b.n != 4 {
		t.Fatalf("after the first sink left: %d and %d records, want 3 and 4", a.n, b.n)
	}
	e.UnsubscribeCommits(b)
	update(5)
	if b.n != 4 || e.capture != nil {
		t.Fatalf("after the last sink left: %d records (want 4), capture armed %v", b.n, e.capture != nil)
	}
}

// TestSubscribeCommitsBeforePreprocess checks the error path.
func TestSubscribeCommitsBeforePreprocess(t *testing.T) {
	e, err := New(query.MustParse("Q(A, B) = R(A, B)"), Options{Mode: viewtree.Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubscribeCommits(&countSink{}, new(Snapshot)); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("SubscribeCommits before Preprocess: %v, want ErrNotBuilt", err)
	}
}

// TestCommitEnvelope drives every entry point into the commit envelope —
// Update, CommitBatch, and PrepareCommit resolved either way —
// through one table of commits, with a commit sink subscribed and a
// snapshot held. Each successful commit must advance the epoch by one,
// count one commit in the stats, publish one CommitDelta, leave the held
// snapshot alone, and agree with the naive evaluation; each commit without
// effect — rejected, aborted, zero-mult, empty — must leave epoch, stats,
// N, and result untouched. The commit hook and its latch live at the
// coordinator: internal/federation's TestCommitHook.
func TestCommitEnvelope(t *testing.T) {
	twoPhase := func(resolve func(*Engine)) func(*Engine, []BatchOp) error {
		return func(e *Engine, ops []BatchOp) error {
			if err := e.PrepareCommit(ops); err != nil {
				return err
			}
			resolve(e)
			return nil
		}
	}
	type entry struct {
		name   string
		aborts bool // never takes effect
		commit func(e *Engine, ops []BatchOp) error
	}
	entries := []entry{
		{"Update", false, func(e *Engine, ops []BatchOp) error {
			return e.Update(ops[0].Rel, ops[0].Row, ops[0].Mult)
		}},
		{"CommitBatch", false, (*Engine).CommitBatch},
		{"PrepareCommit+ApplyPrepared", false, twoPhase((*Engine).ApplyPrepared)},
		{"PrepareCommit+AbortPrepared", true, twoPhase((*Engine).AbortPrepared)},
	}
	// Every step is a one-relation op list, so each entry point can express
	// it (Update: the one-op steps only). The commits cover one-row and
	// multi-row deltas, a delete, ops that net to zero next to one that does
	// not, and a relation the result does not depend on yet.
	op := func(rel string, mult int64, row ...tuple.Value) BatchOp {
		return BatchOp{Rel: rel, Row: tuple.Tuple(row), Mult: mult}
	}
	commits := [][]BatchOp{
		{op("R", 1, 100, 7)},
		{op("S", 2, 7, 200)},
		{op("R", 1, 101, 7), op("R", 3, 102, 7), op("R", 1, 101, 7)},
		{op("R", -1, 100, 7)},
		{op("S", 1, 8, 201), op("S", -1, 8, 201), op("S", 1, 7, 202)},
		{op("S", -2, 7, 200), op("S", 0, 1, 1)},
	}
	noEffect := []struct {
		name string
		ops  []BatchOp
		want func(error) bool // nil: must succeed
	}{
		{"over-delete", []BatchOp{op("R", -1, 555, 555)}, func(err error) bool {
			var me *relation.MultiplicityError
			return errors.As(err, &me)
		}},
		{"arity", []BatchOp{op("S", 1, 1, 2, 3)}, func(err error) bool {
			var ae *relation.ArityError
			return errors.As(err, &ae)
		}},
		{"unknown relation", []BatchOp{op("Z", 1, 1)}, func(err error) bool {
			return errors.Is(err, ErrUnknownRelation)
		}},
		{"zero-mult op", []BatchOp{op("R", 0, 9, 9)}, nil},
		{"empty batch", nil, nil},
	}

	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	for _, en := range entries {
		t.Run(en.name, func(t *testing.T) {
			e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			db := randomDB(q, rand.New(rand.NewSource(41)), 40, 6)
			if err := Preprocess(e, db.Clone()); err != nil {
				t.Fatal(err)
			}
			published := 0
			var held Snapshot
			if err := e.SubscribeCommits(sinkFunc(func(cd *CommitDelta) {
				published++
				if cd.Epoch != e.epoch {
					t.Errorf("published delta for epoch %d at epoch %d", cd.Epoch, e.epoch)
				}
			}), &held); err != nil {
				t.Fatal(err)
			}
			defer held.Close()
			heldRows := resultMap(held.Enumerate)

			// run commits ops through the entry point and checks what moved:
			// one epoch, one commit in the stats, one published delta — or,
			// with effect false, nothing at all.
			run := func(en entry, label string, ops []BatchOp, effect bool, wantErr func(error) bool) {
				t.Helper()
				if en.name == "Update" && len(ops) != 1 {
					return
				}
				effect = effect && !en.aborts
				epoch, n, stats, pubs := e.Epoch(), e.N(), e.Stats(), published
				err := en.commit(e, ops)
				switch {
				case wantErr == nil && err != nil:
					t.Fatalf("%s: %v", label, err)
				case wantErr != nil && (err == nil || !wantErr(err)):
					t.Fatalf("%s: returned %v", label, err)
				}
				want := stats
				if effect {
					epoch++
					want.Batches++
					want.BatchRelations++
					for _, op := range ops {
						if op.Mult != 0 {
							want.Updates++
						}
						db[op.Rel].MustAdd(op.Row, op.Mult)
					}
					n = db.Size()
					pubs++
				}
				got := e.Stats()
				got.ViewDeltas, got.MinorRebalances, got.MajorRebalances = want.ViewDeltas, want.MinorRebalances, want.MajorRebalances
				if e.Epoch() != epoch || e.N() != n || got != want || published != pubs {
					t.Fatalf("%s: epoch %d N %d stats %+v published %d, want %d %d %+v %d",
						label, e.Epoch(), e.N(), got, published, epoch, n, want, pubs)
				}
				sameResult(t, label, e, db)
				sameResultMap(t, label+": held snapshot", resultMap(held.Enumerate), heldRows)
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			for i, ops := range commits {
				run(en, fmt.Sprintf("commit %d", i), ops, true, nil)
				if en.aborts {
					// Move the state along anyway, so later commits validate.
					run(entries[1], fmt.Sprintf("commit %d, after the abort", i), ops, true, nil)
				}
				for _, ne := range noEffect {
					run(en, fmt.Sprintf("after commit %d: %s", i, ne.name), ne.ops, false, ne.want)
				}
			}
		})
	}
}

// TestLoadPlacesAtPreprocess pins the load path: a loaded row is appended to
// the base relation of every occurrence — there is no staging copy — and
// Preprocess places what was appended; a rejected row touches no occurrence,
// and Load is refused once Preprocess has run. The placed base relations
// hold exactly what MustAdd of every loaded row, in load order, gives: the
// same entries with the same multiplicities, in the same insertion order,
// which is the order enumeration follows.
func TestLoadPlacesAtPreprocess(t *testing.T) {
	e, err := New(query.MustParse("Q(A, B) = R(A, B), R(B, A)"), Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	row := tuple.Tuple{1, 1}
	for i := 0; i < 2; i++ { // a repeated row accumulates multiplicity
		if err := e.LoadRows("R", row, []int64{2}); err != nil {
			t.Fatal(err)
		}
	}
	var ae *relation.ArityError
	if err := e.LoadRows("R", tuple.Tuple{1, 2, 3}, []int64{1}); !errors.As(err, &ae) || ae.Relation != "R" {
		t.Errorf("Load of a 3-column row returned %v, want an ArityError naming R", err)
	}
	if err := e.LoadRows("R", row, []int64{0}); err == nil {
		t.Error("Load with multiplicity 0 accepted")
	}
	if err := e.LoadRows("Z", row, []int64{1}); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("Load of an unknown relation returned %v", err)
	}
	e.Preprocess(1, nil)
	for _, rt := range e.relTab[e.relIdx["R"]-1].occs {
		if got, n := rt.base.Mult(row), rt.base.Size(); got != 4 || n != 1 {
			t.Errorf("occurrence %s holds multiplicity %d in %d rows after Preprocess, want 4 in 1", rt.base.Name(), got, n)
		}
	}
	if e.N() != 1 || e.ResultRelation().Mult(row) != 16 {
		t.Errorf("after Preprocess: N = %d, Q(1,1) = %d, want 1 and 16", e.N(), e.ResultRelation().Mult(row))
	}
	if err := e.LoadRows("R", tuple.Tuple{3, 4}, []int64{1}); err == nil {
		t.Error("Load after Preprocess accepted")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}

	// Enough rows, repeats among them, to fill the base columns several
	// times over before Preprocess places them.
	e, err = New(query.MustParse("Q(A, B) = R(A, B), R(B, A)"), Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ref := relation.New("R", tuple.Schema{"A", "B"})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		r, m := tuple.Tuple{rng.Int63n(60), rng.Int63n(60)}, 1+rng.Int63n(3)
		if err := e.LoadRows("R", r, []int64{m}); err != nil {
			t.Fatal(err)
		}
		ref.MustAdd(r, m)
	}
	e.Preprocess(1, nil)
	want := entries(ref)
	for _, rt := range e.relTab[e.relIdx["R"]-1].occs {
		if got := entries(rt.base); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("occurrence %s holds %d entries after Preprocess, want MustAdd's %d in its order", rt.base.Name(), len(got), len(want))
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// entries lists r's entries in insertion order as "tuple:mult" strings.
func entries(r *relation.Relation) []string {
	var out []string
	r.ForEach(func(t tuple.Tuple, m int64) { out = append(out, fmt.Sprint(t, ":", m)) })
	return out
}
