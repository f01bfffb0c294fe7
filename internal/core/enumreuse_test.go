package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// zipfEngine builds the two-path query over zipfTwoPath at ε, so that ε = 0
// makes every B value a heavy key of the grounded indicator.
func zipfEngine(t *testing.T, eps float64) (*Engine, naive.Database) {
	t.Helper()
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	db := zipfTwoPath(77, 1000)
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	return e, db
}

func naiveMap(q *query.Query, db naive.Database) map[string]int64 {
	return resultMap(func(yield func(tuple.Tuple, int64) bool) { naive.MustEval(q, db).ForEachUntil(yield) })
}

// iterMap drains it into a result map.
func iterMap(it *Iterator) map[string]int64 {
	return resultMap(func(yield func(tuple.Tuple, int64) bool) { it.drain(yield) })
}

func freeCtxs(e *Engine) int {
	e.freeCtxs.mu.Lock()
	defer e.freeCtxs.mu.Unlock()
	return len(e.freeCtxs.list)
}

// held is where the open cases keep a Snapshot handle, as a reader that
// holds one does: the compiler keeps a handle that escapes nowhere on the
// stack, and the pins below count the handle a caller holds.
var held *Snapshot

// TestOpenAllocatesConstant pins what an open costs once a context has a tree
// to reuse: the same constant at every ε, although at ε = 0 the tree holds an
// instance per heavy key. A Snapshot allocates its handle, taking its context
// from the engine's free list; an open allocates nothing more, as the
// compiler keeps the Iterator of Enumerate, and of a Result closed in the
// caller, on the stack. The same holds for the first open after a commit:
// the capture re-pins the freed context's frozen handles, so a read through a
// Snapshot the caller keeps on its stack (SnapshotInto, as the public
// implicit reads do) allocates nothing, and one through a held handle only
// the handle.
func TestOpenAllocatesConstant(t *testing.T) {
	for _, eps := range []float64{0, 0.5, 1} {
		e, db := zipfEngine(t, eps)
		var row tuple.Tuple
		db["R"].ForEachUntil(func(r tuple.Tuple, _ int64) bool { row = r.Clone(); return false })
		sign := int64(1)
		commit := func() {
			if err := e.Update("R", row, sign); err != nil {
				t.Fatal(err)
			}
			sign = -sign
		}
		snap := e.Snapshot()
		stop := func(tuple.Tuple, int64) bool { return false }
		for _, tc := range []struct {
			name string
			open func()
			want uint64
		}{
			{"live Result", func() { e.Result().Close() }, 0},
			{"live Enumerate", func() { e.Enumerate(stop) }, 0},
			{"held snapshot Result", func() { snap.Result().Close() }, 0},
			{"Snapshot, Result, Close", func() { held = e.Snapshot(); held.Result().Close(); held.Close() }, 1},
			{"Snapshot, Enumerate, Close", func() { held = e.Snapshot(); held.Enumerate(stop); held.Close() }, 1},
			{"commit, then SnapshotInto, Enumerate, Close", func() {
				commit()
				var s Snapshot
				e.SnapshotInto(&s)
				s.Enumerate(stop)
				s.Close()
			}, 0},
			{"commit, then Snapshot, Enumerate, Close", func() {
				commit()
				held = e.Snapshot()
				held.Enumerate(stop)
				held.Close()
			}, 1},
			{"commit, then Snapshot, Result, Close", func() {
				commit()
				held = e.Snapshot()
				held.Result().Close()
				held.Close()
			}, 1},
		} {
			first := mallocsOf(tc.open)
			tc.open()
			if got := mallocsOf(tc.open); got != tc.want {
				t.Errorf("ε=%v %s: a later open allocates %d times, want %d (the first: %d)", eps, tc.name, got, tc.want, first)
			}
		}
		snap.Close()
		held = nil
	}
}

// TestClosedIteratorStaysClosed pins the reuse of a closed iterator's tree:
// its handle's Next stays false after another open reuses the tree, without
// advancing that open's iterator, and a second Close hands nothing back, so
// two open iterators never share a tree.
func TestClosedIteratorStaysClosed(t *testing.T) {
	e, db := zipfEngine(t, 0.5)
	want := naiveMap(e.Query(), db)
	snap := e.Snapshot()
	defer snap.Close()
	for _, src := range []struct {
		name   string
		result func() *Iterator
	}{{"live", e.Result}, {"snapshot", snap.Result}} {
		first := src.result()
		if _, _, ok := first.Next(); !ok {
			t.Fatalf("%s: empty result", src.name)
		}
		first.Close()
		first.Close()
		second := src.result()
		if _, _, ok := first.Next(); ok {
			t.Fatalf("%s: Next on a closed iterator returned a row", src.name)
		}
		third := src.result()
		if second.top == third.top {
			t.Fatalf("%s: two open iterators share one tree", src.name)
		}
		sameResultMap(t, src.name+" third", iterMap(third), want)
		sameResultMap(t, src.name+" second", iterMap(second), want)
	}
}

// TestSnapshotDoubleCloseRecyclesOnce pins that closing a snapshot twice puts
// its context on the free list once, so the next two snapshots enumerate
// with bindings of their own.
func TestSnapshotDoubleCloseRecyclesOnce(t *testing.T) {
	e, db := zipfEngine(t, 0.5)
	want := naiveMap(e.Query(), db)
	s := e.Snapshot()
	s.Close()
	s.Close()
	if n := freeCtxs(e); n != 1 {
		t.Fatalf("free list holds %d contexts after a double Close, want 1", n)
	}
	a, b := e.Snapshot(), e.Snapshot()
	defer a.Close()
	defer b.Close()
	if a.ctx == b.ctx {
		t.Fatal("two open snapshots share one enumeration context")
	}
	ia, ib := a.Result(), b.Result()
	got := map[string]int64{}
	for {
		ta, ma, ok := ia.Next()
		if !ok {
			break
		}
		got[fmt.Sprint(ta)] = ma
		ib.Next() // advance the other snapshot between every two rows
	}
	ib.Close()
	sameResultMap(t, "interleaved", got, want)
}

// TestSnapshotCloseDropsBusyContext pins that a snapshot closed while one of
// its iterators is open leaves its context off the free list, so the next
// snapshot neither shares its bindings nor counts its work.
func TestSnapshotCloseDropsBusyContext(t *testing.T) {
	e, _ := zipfEngine(t, 0.5)
	s := e.Snapshot()
	it := s.Result()
	it.Next()
	busy := s.ctx
	s.Close()
	if n := freeCtxs(e); n != 0 {
		t.Fatalf("free list holds %d contexts after closing a snapshot with an open iterator, want 0", n)
	}
	next := e.Snapshot()
	defer next.Close()
	if next.ctx == busy {
		t.Fatal("a new snapshot took the context of an open iterator")
	}
	work := next.Work()
	it.Next()
	it.Close()
	if next.Work() != work {
		t.Fatal("an iterator of a closed snapshot counts work into a new one")
	}
}

// TestFreedContextPinsNoStore pins that a context on the engine's free list
// keeps no retired store alive. A snapshot grounds every heavy key, a commit
// detaches the stores it pins and deletes one heavy key's rows, and the
// snapshot closes, releasing its pins; the next snapshot reopens the same
// context's tree with one instance fewer and re-pins the same context's
// handles. Once the first snapshot is closed, and again once both are, the
// stores the commit retired are garbage.
func TestFreedContextPinsNoStore(t *testing.T) {
	e, db := zipfEngine(t, 0)
	s := e.Snapshot()
	s.Enumerate(func(tuple.Tuple, int64) bool { return true })
	var stores []func() (live, retired bool) // per pinned store: reachable, and detached since
	for id, f := range s.ctx.rels {
		if f == nil || e.info[id].frozenAs != id {
			continue
		}
		ref, rel := f.StoreRef(), e.rels[id]
		stores = append(stores, func() (bool, bool) { return ref.Value() != nil, rel.StoreRef() != ref })
	}
	var heavy []tuple.Tuple
	db["R"].ForEach(func(r tuple.Tuple, _ int64) {
		if r[1] == 1 { // a frequent B of the zipf, joined in S
			heavy = append(heavy, r.Clone())
		}
	})
	for _, r := range heavy {
		if err := e.Update("R", r, -1); err != nil {
			t.Fatal(err)
		}
	}
	var retired []func() (bool, bool)
	for _, st := range stores {
		if _, r := st(); r {
			retired = append(retired, st)
		}
	}
	if len(retired) == 0 {
		t.Fatal("the commit detached none of the snapshot's stores")
	}
	unreachable := func(when string) {
		t.Helper()
		runtime.GC()
		for i, st := range retired {
			if live, _ := st(); live {
				t.Fatalf("%s: retired store %d of %d is still reachable", when, i, len(retired))
			}
		}
	}
	ctx := s.ctx
	s.Close()
	if n := freeCtxs(e); n != 1 {
		t.Fatalf("closing the snapshot freed %d contexts, want 1", n)
	}
	unreachable("with the context on the free list")
	next := e.Snapshot()
	if next.ctx != ctx {
		t.Fatal("the next snapshot did not take the freed context")
	}
	next.Enumerate(func(tuple.Tuple, int64) bool { return true })
	next.Close()
	unreachable("with both snapshots closed")
	if freeCtxs(e) != 1 {
		t.Fatal("the freed context left the free list") // and keeps e, so its list, alive
	}
}

// TestSnapshotReuseRacesCommits runs readers that each take a snapshot, range
// over all of it or stop early, take a second snapshot while the first is
// open and close both, against one goroutine that commits; captures and
// commits serialize on an owner mutex (commitRounds). Every full read equals
// naive at its snapshot's epoch, every early-stopped one is a part of it, and
// the free list never holds more than its cap, though the readers hold more
// contexts than that at once.
func TestSnapshotReuseRacesCommits(t *testing.T) {
	e, db, rng := raceEngine(t)
	var own sync.Mutex
	states := map[uint64]map[string]int64{e.Epoch(): naiveMap(e.Query(), db)}

	type obs struct {
		epoch uint64
		res   map[string]int64
		full  bool
	}
	var (
		mu           sync.Mutex
		observations []obs
		overCap      int
	)
	record := func(s *Snapshot, limit int) {
		res := map[string]int64{}
		rows := 0
		s.Enumerate(func(t tuple.Tuple, m int64) bool {
			res[fmt.Sprint(t)] = m
			rows++
			return rows < limit
		})
		n := freeCtxs(e)
		mu.Lock()
		observations = append(observations, obs{s.Epoch(), res, rows < limit})
		if n > maxFreeCtxs {
			overCap = n
		}
		mu.Unlock()
	}
	const readers = maxFreeCtxs/2 + 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				limit := 1 << 30
				if (i+r)%3 == 0 {
					limit = 1 + i%5
				}
				own.Lock()
				first := e.Snapshot()
				own.Unlock()
				record(first, limit)
				own.Lock()
				second := e.Snapshot()
				own.Unlock()
				record(second, 1<<30)
				first.Close()
				record(second, limit)
				second.Close()
				if n := freeCtxs(e); n > maxFreeCtxs {
					mu.Lock()
					overCap = n
					mu.Unlock()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}
	commitRounds(t, e, &own, db, rng, states)
	close(stop)
	wg.Wait()

	t.Logf("%d reads over %d epochs", len(observations), len(states))
	if overCap > 0 {
		t.Fatalf("the free list held %d contexts, cap %d", overCap, maxFreeCtxs)
	}
	for i, o := range observations {
		checkObservation(t, fmt.Sprintf("observation %d", i), states, o.epoch, o.res, o.full)
	}
}

// raceEngine builds the two-path engine the race tests read, over a small
// random database.
func raceEngine(t *testing.T) (*Engine, naive.Database, *rand.Rand) {
	t.Helper()
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	db := randomDB(q, rng, 40, 6)
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	return e, db, rng
}

// commitRounds commits 300 single-tuple updates, alternating R and S, each
// under own — the engine's owner lock, which the readers take around their
// captures, as internal/federation's Fed.mu is — yielding between them so
// readers capture at every epoch, and records the naive result of every epoch
// it publishes in states.
func commitRounds(t *testing.T, e *Engine, own *sync.Mutex, db naive.Database, rng *rand.Rand, states map[uint64]map[string]int64) {
	t.Helper()
	for round := 0; round < 300; round++ {
		runtime.Gosched() // let the readers take snapshots at every epoch
		rel := []string{"R", "S"}[round%2]
		row := tuple.Tuple{rng.Int63n(6), rng.Int63n(6)}
		m := int64(1)
		if cur := db[rel].Mult(row); cur > 0 && rng.Intn(2) == 0 {
			m = -cur
		}
		own.Lock()
		err := e.Update(rel, row, m)
		own.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		db[rel].MustAdd(row, m)
		states[e.Epoch()] = naiveMap(e.Query(), db)
	}
}

// checkObservation holds a read at epoch to the naive result there: all of
// it if the read was full, a part of it if it stopped early.
func checkObservation(t *testing.T, label string, states map[uint64]map[string]int64, epoch uint64, res map[string]int64, full bool) {
	t.Helper()
	want, ok := states[epoch]
	if !ok {
		t.Fatalf("%s: snapshot at epoch %d, which no commit published", label, epoch)
	}
	label = fmt.Sprintf("%s at epoch %d", label, epoch)
	if full {
		sameResultMap(t, label, res, want)
		return
	}
	for k, m := range res {
		if want[k] != m {
			t.Fatalf("%s: early-stopped read has %s with mult %d, want %d", label, k, m, want[k])
		}
	}
}

// TestGenerationReuseRacesCommits runs readers that each capture at whatever
// epoch the committer has reached — nearly always a new one, so the capture
// re-pins a freed context's handles — read all of it or stop early, and close,
// against one goroutine that commits. Every third read closes its snapshot
// while its iterator is still open and drains the iterator afterwards, past
// later commits and captures; captures and commits serialize on an owner
// mutex (commitRounds). Every full read equals naive at its snapshot's epoch,
// and every early-stopped one is a part of it.
func TestGenerationReuseRacesCommits(t *testing.T) {
	e, db, rng := raceEngine(t)
	var own sync.Mutex
	states := map[uint64]map[string]int64{e.Epoch(): naiveMap(e.Query(), db)}
	type obs struct {
		epoch uint64
		res   map[string]int64
		full  bool
	}
	var (
		mu           sync.Mutex
		observations []obs
	)
	const readers = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				var s Snapshot
				own.Lock()
				e.SnapshotInto(&s)
				own.Unlock()
				it := s.Result()
				res := map[string]int64{}
				limit, rows := 1<<30, 0
				if (i+r)%3 == 1 {
					limit = 1 + i%4
				}
				if (i+r)%3 == 2 {
					if row, m, ok := it.Next(); ok {
						res[fmt.Sprint(row)] = m
					}
					s.Close() // the iterator stays open past the Close
					runtime.Gosched()
				}
				for rows < limit {
					row, m, ok := it.Next()
					if !ok {
						break
					}
					res[fmt.Sprint(row)] = m
					rows++
				}
				it.Close()
				s.Close()
				mu.Lock()
				observations = append(observations, obs{s.Epoch(), res, rows < limit})
				mu.Unlock()
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}
	commitRounds(t, e, &own, db, rng, states)
	close(stop)
	wg.Wait()

	t.Logf("%d reads over %d epochs", len(observations), len(states))
	for i, o := range observations {
		checkObservation(t, fmt.Sprintf("observation %d", i), states, o.epoch, o.res, o.full)
	}
}

// TestSnapshotCloseKeepsBusyGeneration pins that a snapshot closed while its
// iterator is open keeps its context and pins: the context never reaches the
// free list, later commits and captures at new epochs re-pin other
// contexts, and the iterator still yields the rows of its own epoch.
func TestSnapshotCloseKeepsBusyGeneration(t *testing.T) {
	e, db := zipfEngine(t, 0.5)
	want := naiveMap(e.Query(), db)
	s := e.Snapshot()
	it := s.Result()
	got := map[string]int64{}
	row, m, ok := it.Next()
	if !ok {
		t.Fatal("empty result")
	}
	got[fmt.Sprint(row)] = m
	busy := s.ctx
	s.Close()
	var rows []tuple.Tuple
	db["R"].ForEach(func(r tuple.Tuple, _ int64) { rows = append(rows, r.Clone()) })
	for i, r := range rows[:20] {
		if err := e.Update("R", r, -1); err != nil {
			t.Fatal(err)
		}
		var next Snapshot
		e.SnapshotInto(&next)
		if next.ctx == busy {
			t.Fatalf("read %d after the close took the context of an open iterator", i)
		}
		next.Enumerate(func(tuple.Tuple, int64) bool { return true })
		next.Close()
	}
	for _, f := range busy.pinned {
		if f.StoreRef().Value() == nil {
			t.Fatal("a snapshot closed with an open iterator released its pins")
		}
	}
	for {
		row, m, ok := it.Next()
		if !ok {
			break
		}
		got[fmt.Sprint(row)] = m
	}
	it.Close()
	sameResultMap(t, "the open iterator of a closed snapshot", got, want)
}
