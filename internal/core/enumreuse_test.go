package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"weak"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
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

// TestOpenAllocatesConstant pins what an open costs once a context has a tree
// to reuse: the same constant at every ε, although at ε = 0 the tree holds an
// instance per heavy key. A Snapshot allocates its handle, taking its context
// from the engine's free list; an open allocates nothing more, as the
// compiler keeps the Iterator of Enumerate, and of a Result closed in the
// caller, on the stack.
func TestOpenAllocatesConstant(t *testing.T) {
	for _, eps := range []float64{0, 0.5, 1} {
		e, _ := zipfEngine(t, eps)
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
			{"Snapshot, Result, Close", func() { s := e.Snapshot(); s.Result().Close(); s.Close() }, 1},
			{"Snapshot, Enumerate, Close", func() { s := e.Snapshot(); s.Enumerate(stop); s.Close() }, 1},
		} {
			first := mallocsOf(tc.open)
			tc.open()
			if got := mallocsOf(tc.open); got != tc.want {
				t.Errorf("ε=%v %s: a later open allocates %d times, want %d (the first: %d)", eps, tc.name, got, tc.want, first)
			}
		}
		snap.Close()
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

// TestFreedContextPinsNoStore pins that a context on the free list keeps no
// retired store alive. A snapshot grounds every heavy key, a commit detaches
// the stores it pins and deletes one heavy key's rows, and the next snapshot
// reopens the same context's tree with one instance fewer: once both are
// closed, the first snapshot's frozen handles, which hold the retired stores,
// are garbage.
func TestFreedContextPinsNoStore(t *testing.T) {
	e, db := zipfEngine(t, 0)
	s := e.Snapshot()
	s.Enumerate(func(tuple.Tuple, int64) bool { return true })
	var handles []weak.Pointer[relation.Relation]
	for _, f := range s.gen.pinned {
		handles = append(handles, weak.Make(f))
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
	ctx := s.ctx
	s.Close()
	next := e.Snapshot()
	if next.ctx != ctx {
		t.Fatal("the next snapshot did not take the freed context")
	}
	next.Enumerate(func(tuple.Tuple, int64) bool { return true })
	next.Close()
	runtime.GC()
	for i, h := range handles {
		if h.Value() != nil {
			t.Fatalf("frozen handle %d of a closed snapshot is still reachable from the freed context", i)
		}
	}
	if freeCtxs(e) != 1 {
		t.Fatal("the freed context left the free list") // and keeps e, so its list, alive
	}
}

// TestSnapshotReuseRacesCommits runs readers that each take a snapshot, range
// over all of it or stop early, take a second snapshot while the first is
// open and close both, against one goroutine that commits. Every full read
// equals naive at its snapshot's epoch, every early-stopped one is a part of
// it, and the free list never holds more than its cap, though the readers
// hold more contexts than that at once.
func TestSnapshotReuseRacesCommits(t *testing.T) {
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
	states := map[uint64]map[string]int64{e.Epoch(): naiveMap(q, db)}

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
				first := e.Snapshot()
				record(first, limit)
				second := e.Snapshot()
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
	for round := 0; round < 300; round++ {
		runtime.Gosched() // let the readers take snapshots at every epoch
		rel := []string{"R", "S"}[round%2]
		row := tuple.Tuple{rng.Int63n(6), rng.Int63n(6)}
		m := int64(1)
		if cur := db[rel].Mult(row); cur > 0 && rng.Intn(2) == 0 {
			m = -cur
		}
		if err := e.Update(rel, row, m); err != nil {
			t.Fatal(err)
		}
		db[rel].MustAdd(row, m)
		states[e.Epoch()] = naiveMap(q, db)
	}
	close(stop)
	wg.Wait()

	t.Logf("%d reads over %d epochs", len(observations), len(states))
	if overCap > 0 {
		t.Fatalf("the free list held %d contexts, cap %d", overCap, maxFreeCtxs)
	}
	for i, o := range observations {
		want, ok := states[o.epoch]
		if !ok {
			t.Fatalf("observation %d: snapshot at epoch %d, which no commit published", i, o.epoch)
		}
		label := fmt.Sprintf("observation %d at epoch %d", i, o.epoch)
		if o.full {
			sameResultMap(t, label, o.res, want)
			continue
		}
		for k, m := range o.res {
			if want[k] != m {
				t.Fatalf("%s: early-stopped read has %s with mult %d, want %d", label, k, m, want[k])
			}
		}
	}
}
