package federation

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ivmeps/internal/core"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// randomDB builds an initial database for q with n tuples per relation
// over a small domain (duplicates accumulate multiplicity).
func randomDB(q *query.Query, rng *rand.Rand, n int, domain int64) naive.Database {
	db := naive.Database{}
	for _, name := range q.RelationNames() {
		var schema tuple.Schema
		for _, a := range q.Atoms {
			if a.Rel == name {
				schema = a.Vars
				break
			}
		}
		r := relation.New(name, schema)
		for i := 0; i < n; i++ {
			t := make(tuple.Tuple, len(schema))
			for j := range t {
				t[j] = rng.Int63n(domain)
			}
			r.MustAdd(t, 1)
		}
		db[name] = r
	}
	return db
}

func resultMap(enum func(func(tuple.Tuple, int64) bool)) map[string]int64 {
	out := map[string]int64{}
	enum(func(t tuple.Tuple, m int64) bool {
		out[fmt.Sprint(t)] = m
		return true
	})
	return out
}

// Snapshot captures into a new handle, as a reader that holds one does.
func (f *Fed) Snapshot() *Snapshot {
	s := new(Snapshot)
	f.SnapshotInto(s)
	return s
}

// coreSnapshot captures e into a new handle.
func coreSnapshot(e *core.Engine) *core.Snapshot {
	s := new(core.Snapshot)
	e.SnapshotInto(s)
	return s
}

// liveResult reads f's current committed result through a snapshot of its
// own.
func liveResult(f *Fed) map[string]int64 {
	s := f.Snapshot()
	defer s.Close()
	return resultMap(s.Enumerate)
}

func sameResultMap(t *testing.T, label string, got, want map[string]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result tuples, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for k, m := range want {
		if got[k] != m {
			t.Fatalf("%s: tuple %s has mult %d, want %d", label, k, got[k], m)
		}
	}
}

// propQueries exercises every routing shape: a free shard key
// (concatenating gather), a bound shard key (aggregating gather), multiple
// components with a broadcast component, repeated relation symbols with
// per-occurrence key positions, and a Boolean query.
var propQueries = []string{
	"Q(A, B, C) = R(A, B), S(A, C)",
	"Q(C, E) = R(A), S(A, B), T(A, B, C), U(A, D), V(A, D, E)",
	"Q(A, C) = R(A, B), T(C)",
	"Q(A, B) = R(A, B), R(B, A)",
	"Q() = R(A, B), S(B)",
}

// driveBatches generates a deterministic mixed insert/delete batch
// sequence that is valid by construction (deletes target previously
// inserted rows).
type driver struct {
	rng  *rand.Rand
	rels []string
	ar   map[string]int
	live map[string][]tuple.Tuple
}

func newDriver(q *query.Query, seed int64) *driver {
	d := &driver{rng: rand.New(rand.NewSource(seed)), ar: map[string]int{}, live: map[string][]tuple.Tuple{}}
	for _, name := range q.RelationNames() {
		d.rels = append(d.rels, name)
		for _, a := range q.Atoms {
			if a.Rel == name {
				d.ar[name] = len(a.Vars)
				break
			}
		}
	}
	return d
}

func (d *driver) nextBatch(size int, domain int64) []core.BatchOp {
	var ops []core.BatchOp
	for i := 0; i < size; i++ {
		rel := d.rels[d.rng.Intn(len(d.rels))]
		if rows := d.live[rel]; len(rows) > 0 && d.rng.Intn(3) == 0 {
			j := d.rng.Intn(len(rows))
			ops = append(ops, core.BatchOp{Rel: rel, Row: rows[j], Mult: -1})
			d.live[rel] = append(rows[:j], rows[j+1:]...)
			continue
		}
		t := make(tuple.Tuple, d.ar[rel])
		for j := range t {
			t[j] = d.rng.Int63n(domain)
		}
		ops = append(ops, core.BatchOp{Rel: rel, Row: t, Mult: 1})
		d.live[rel] = append(d.live[rel], t)
	}
	return ops
}

// TestFederatedMatchesSingleEngine is the correctness anchor: federated
// enumeration — live and through snapshots — must equal a single-engine
// reference at every epoch, for K ∈ {1, 2, 4, 8} and ε ∈ {0, 0.5, 1}
// (all-heavy, split, and all-light partitions), across all routing shapes.
// Run with -race to cover the parallel prepare/apply and the parallel shard
// preprocessing.
func TestFederatedMatchesSingleEngine(t *testing.T) {
	for _, qs := range propQueries {
		for _, k := range []int{1, 2, 4, 8} {
			for _, eps := range []float64{0, 0.5, 1} {
				t.Run(fmt.Sprintf("%s/K=%d/eps=%v", qs, k, eps), func(t *testing.T) {
					testFederatedMatchesSingleEngine(t, qs, k, eps)
				})
			}
		}
	}
}

func testFederatedMatchesSingleEngine(t *testing.T, qs string, k int, eps float64) {
	q := query.MustParse(qs)
	eopts := core.Options{Mode: viewtree.Dynamic, Epsilon: eps}
	ref, err := core.New(q, eopts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(q, Options{Shards: k, Engine: eopts})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db := randomDB(q, rand.New(rand.NewSource(77)), 60, 12)
	if err := core.Preprocess(ref, db.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := f.Preprocess(db); err != nil {
		t.Fatal(err)
	}

	type held struct {
		epoch uint64
		fed   *Snapshot
		ref   *core.Snapshot
	}
	var kept []held
	check := func(label string) {
		t.Helper()
		if fe, re := f.Epoch(), ref.Epoch(); fe != re {
			t.Fatalf("%s: federation epoch %d, single-engine epoch %d", label, fe, re)
		}
		sameResultMap(t, label+"/live", liveResult(f), resultMap(ref.Enumerate))
		fs, rs := f.Snapshot(), coreSnapshot(ref)
		sameResultMap(t, label+"/snapshot", resultMap(fs.Enumerate), resultMap(rs.Enumerate))
		if fs.Epoch() != f.Epoch() {
			t.Fatalf("%s: snapshot epoch %d != federation epoch %d", label, fs.Epoch(), f.Epoch())
		}
		kept = append(kept, held{epoch: fs.Epoch(), fed: fs, ref: rs})
	}
	check("epoch 1")
	drv := newDriver(q, 99)
	for c := 0; c < 6; c++ {
		ops := drv.nextBatch(30, 12)
		if err := ref.CommitBatch(ops); err != nil {
			t.Fatalf("commit %d (single): %v", c, err)
		}
		if err := f.CommitBatch(ops); err != nil {
			t.Fatalf("commit %d (federated): %v", c, err)
		}
		check(fmt.Sprintf("epoch %d", c+2))
	}
	if n, rn := f.N(), ref.N(); n != rn {
		t.Errorf("N = %d, single-engine N = %d", n, rn)
	}
	// Held snapshots must still observe their own epochs
	// after all later commits (copy-on-write across shards).
	for _, h := range kept {
		sameResultMap(t, fmt.Sprintf("held snapshot epoch %d", h.epoch),
			resultMap(h.fed.Enumerate), resultMap(h.ref.Enumerate))
		h.fed.Close()
		h.ref.Close()
	}
}

// TestConcurrentReadersDuringCommits covers the reader/writer protocol
// under -race: snapshot readers enumerate while commits run.
func TestConcurrentReadersDuringCommits(t *testing.T) {
	q := query.MustParse("Q(A, B, C) = R(A, B), S(A, C)")
	f, err := New(q, Options{Shards: 2, Engine: core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Preprocess(randomDB(q, rand.New(rand.NewSource(7)), 80, 10)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := f.Snapshot()
				resultMap(s.Enumerate)
				s.Close()
			}
		}()
	}
	drv := newDriver(q, 13)
	for c := 0; c < 20; c++ {
		if err := f.CommitBatch(drv.nextBatch(20, 10)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCrossShardAllOrNothing is the satellite coverage: a validation
// failure on shard k must leave EVERY shard's state and epoch untouched —
// including shards whose sub-batches had already been prepared — and the
// federation errors must be programmable (ShardError via errors.As,
// sentinels and structured errors reachable through it).
func TestCrossShardAllOrNothing(t *testing.T) {
	q := query.MustParse("Q(A, B, C) = R(A, B), S(A, C)")
	f, err := New(q, Options{Shards: 4, Engine: core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Preprocess(randomDB(q, rand.New(rand.NewSource(41)), 60, 8)); err != nil {
		t.Fatal(err)
	}
	// Spread valid inserts over many keys (touching all shards), then an
	// over-delete of a row that was never stored: the owning shard's
	// prepare fails after others prepared.
	var ops []core.BatchOp
	for v := int64(0); v < 32; v++ {
		ops = append(ops, core.BatchOp{Rel: "R", Row: tuple.Tuple{1000 + v, v}, Mult: 1})
	}
	ops = append(ops, core.BatchOp{Rel: "S", Row: tuple.Tuple{5555, 5555}, Mult: -3})

	fedEpoch := f.Epoch()
	shardEpochs := make([]uint64, f.Shards())
	for i, e := range f.shards {
		shardEpochs[i] = e.Epoch()
	}
	before := liveResult(f)
	n := f.N()

	err = f.CommitBatch(ops)
	if err == nil {
		t.Fatal("over-deleting cross-shard batch accepted")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("cross-shard validation failure returned %T, want *ShardError", err)
	}
	if se.Shard < 0 || se.Shard >= f.Shards() {
		t.Errorf("ShardError.Shard = %d, want in [0, %d)", se.Shard, f.Shards())
	}
	var me *relation.MultiplicityError
	if !errors.As(err, &me) {
		t.Errorf("MultiplicityError not reachable through ShardError: %v", err)
	}

	if got := f.Epoch(); got != fedEpoch {
		t.Errorf("federation epoch moved %d → %d on a failed commit", fedEpoch, got)
	}
	for i, e := range f.shards {
		if got := e.Epoch(); got != shardEpochs[i] {
			t.Errorf("shard %d epoch moved %d → %d on a failed commit", i, shardEpochs[i], got)
		}
	}
	sameResultMap(t, "failed cross-shard commit", liveResult(f), before)
	if got := f.N(); got != n {
		t.Errorf("N moved %d → %d on a failed commit", n, got)
	}

	// Scatter-time failures carry no shard attribution: the shards were
	// never involved.
	err = f.CommitBatch([]core.BatchOp{{Rel: "nope", Row: tuple.Tuple{1, 2}, Mult: 1}})
	if !errors.Is(err, core.ErrUnknownRelation) {
		t.Errorf("unknown relation returned %v, want ErrUnknownRelation", err)
	}
	if errors.As(err, &se) {
		t.Errorf("scatter-time unknown relation wrongly attributed to shard %d", se.Shard)
	}
	err = f.CommitBatch([]core.BatchOp{{Rel: "R", Row: tuple.Tuple{1, 2, 3}, Mult: 1}})
	var ae *relation.ArityError
	if !errors.As(err, &ae) {
		t.Errorf("arity mismatch returned %v, want *relation.ArityError", err)
	}
	if errors.As(err, &se) {
		t.Errorf("scatter-time arity error wrongly attributed to shard %d", se.Shard)
	}
	sameResultMap(t, "failed scatter", liveResult(f), before)
}

// TestShardErrorUnwrap pins the error chain: sentinel values and
// structured errors pass through ShardError.
func TestShardErrorUnwrap(t *testing.T) {
	inner := &relation.MultiplicityError{Relation: "R", Tuple: tuple.Tuple{1}, Have: 0, Delta: -1}
	se := &ShardError{Shard: 3, Err: inner}
	var me *relation.MultiplicityError
	if !errors.As(se, &me) || me != inner {
		t.Error("errors.As does not reach the wrapped MultiplicityError")
	}
	if !errors.Is(&ShardError{Shard: 1, Err: core.ErrStatic}, core.ErrStatic) {
		t.Error("errors.Is does not reach a wrapped sentinel")
	}
	if se.Error() == "" {
		t.Error("empty ShardError message")
	}
}

// TestFederationUpdateParity covers the single-op path (Update) against a
// single-engine reference.
func TestFederationUpdateParity(t *testing.T) {
	q := query.MustParse("Q(A, B, C) = R(A, B), S(A, C)")
	eopts := core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5}
	ref, err := core.New(q, eopts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(q, Options{Shards: 3, Engine: eopts})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db := randomDB(q, rand.New(rand.NewSource(55)), 40, 8)
	if err := core.Preprocess(ref, db.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := f.Preprocess(db); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		rel  string
		row  tuple.Tuple
		mult int64
	}{
		{"R", tuple.Tuple{100, 1}, 2},
		{"S", tuple.Tuple{100, 2}, 1},
		{"R", tuple.Tuple{100, 1}, -1},
		{"S", tuple.Tuple{3, 3}, 0}, // no-op, no epoch
	}
	for _, st := range steps {
		if err := ref.Update(st.rel, st.row, st.mult); err != nil {
			t.Fatal(err)
		}
		if err := f.Update(st.rel, st.row, st.mult); err != nil {
			t.Fatal(err)
		}
		if fe, re := f.Epoch(), ref.Epoch(); fe != re {
			t.Fatalf("after %v: federation epoch %d, single %d", st, fe, re)
		}
		sameResultMap(t, fmt.Sprint(st), liveResult(f), resultMap(ref.Enumerate))
	}
	if err := f.Update("nope", tuple.Tuple{1}, 1); !errors.Is(err, core.ErrUnknownRelation) {
		t.Errorf("Update on unknown relation returned %v", err)
	}
	// Over-delete through the single-op path: all-or-nothing, typed.
	err = f.Update("R", tuple.Tuple{4242, 4242}, -1)
	var me *relation.MultiplicityError
	if !errors.As(err, &me) {
		t.Errorf("single-op over-delete returned %v, want MultiplicityError", err)
	}
}

// TestShardedCommitZeroAllocs pins the steady-state federated commit at
// zero heap allocations per commit: scatter into pooled sub-batches,
// per-shard prepare/apply on warmed engines, parallel apply via the
// persistent runners and the reused barrier.
func TestShardedCommitZeroAllocs(t *testing.T) {
	q := query.MustParse("Q(A, B, C) = R(A, B), S(A, C)")
	f, err := New(q, Options{Shards: 4, Engine: core.Options{Mode: viewtree.Dynamic, Epsilon: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Preprocess(randomDB(q, rand.New(rand.NewSource(61)), 400, 40)); err != nil {
		t.Fatal(err)
	}
	const rows = 64
	ops := make([]core.BatchOp, 0, 2*rows)
	buf := make(tuple.Tuple, 4*rows)
	next := int64(10000)
	cycle := func() {
		ops = ops[:0]
		for i := 0; i < rows; i++ {
			tu := buf[4*i : 4*i+2]
			tu[0], tu[1] = next, next+1
			ops = append(ops, core.BatchOp{Rel: "R", Row: tu, Mult: 1})
			tu2 := buf[4*i+2 : 4*i+4]
			tu2[0], tu2[1] = next, next+2
			ops = append(ops, core.BatchOp{Rel: "S", Row: tu2, Mult: 1})
			next += 3
		}
		if err := f.CommitBatch(ops); err != nil {
			t.Fatal(err)
		}
		for i := range ops {
			ops[i].Mult = -1
		}
		if err := f.CommitBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("steady federated commit cycle allocates %v per run, want 0", n)
	}
}

// TestShardKeySelection pins the routing choices per query shape.
func TestShardKeySelection(t *testing.T) {
	cases := []struct {
		q      string
		vars   string
		concat bool
	}{
		{"Q(A, B, C) = R(A, B), S(A, C)", "(A)", true},
		{"Q(C, E) = R(A), S(A, B), T(A, B, C), U(A, D), V(A, D, E)", "(A)", false},
		{"Q(A, C) = R(A, B), T(C)", "(A)", true},
		{"Q() = R(A, B), S(B)", "(B)", false},
	}
	for _, c := range cases {
		f, err := New(query.MustParse(c.q), Options{Shards: 2})
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		vars, concat := f.ShardVars()
		if got := vars.String(); got != c.vars || concat != c.concat {
			t.Errorf("%s: shard key %s concat=%v, want %s concat=%v", c.q, got, concat, c.vars, c.concat)
		}
		f.Close()
	}
}
