package ivmeps_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"ivmeps"
	"ivmeps/internal/client"
	"ivmeps/internal/server"
)

// The loopback property suite: an engine served over HTTP on a loopback
// listener must be observationally identical to the same engine used
// in-process. Under concurrent commit traffic,
//
//   - every paginated read (client.Rows / client.All) returns exactly the
//     reference join result at the epoch it observed, and
//   - every remote watcher's fold — anchor state plus every event delta —
//     matches the local watcher's fold at every epoch, for full, filtered,
//     and close/reopen-resumed subscriptions.
//
// Run under -race, it covers the server's commit/read/watch interleavings.

// svcState is a folded per-view state: view → canonical row key → mult.
type svcState map[string]map[string]int64

// svcKey canonicalizes one row.
func svcKey(row []int64) string { return fmt.Sprint(row) }

// svcCanon canonicalizes one view's folded rows for comparison.
func svcCanon(m map[string]int64) string {
	lines := make([]string, 0, len(m))
	for k, v := range m {
		if v != 0 {
			lines = append(lines, fmt.Sprintf("%s=%d", k, v))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}

// svcFold applies one event's deltas to a state, in place.
func svcFold(st svcState, ev ivmeps.Event) {
	for _, d := range ev.Deltas {
		vm := st[d.View]
		if vm == nil {
			vm = make(map[string]int64)
			st[d.View] = vm
		}
		for i := range d.Rows {
			k := svcKey(d.Rows[i])
			vm[k] += d.Mults[i]
			if vm[k] == 0 {
				delete(vm, k)
			}
		}
	}
}

// svcCanonAll snapshots a state's canonical form for the given views.
func svcCanonAll(st svcState, views []string) map[string]string {
	out := make(map[string]string, len(views))
	for _, v := range views {
		out[v] = svcCanon(st[v])
	}
	return out
}

// svcFoldRecord is one watcher's observation history: epoch → view →
// canonical state, plus which views it covers.
type svcFoldRecord struct {
	name   string
	views  []string
	byEp   map[uint64]map[string]string
	lastEp uint64
}

// TestServerLoopbackProperty runs the loopback property over three random
// commit histories, one per seed.
func TestServerLoopbackProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { testServerLoopback(t, seed) })
	}
}

func testServerLoopback(t *testing.T, seed int64) {
	const (
		commits   = 60
		maxOps    = 16
		domain    = 8
		buildEp   = uint64(1)
		finalEp   = buildEp + commits // every commit is non-empty, so epochs are dense
		pageLimit = 5                 // small pages force multi-page reads
	)
	q := ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	eng, err := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	views := eng.Views()
	srv := server.New(eng, server.Options{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c, err := client.New(hs.URL, client.Options{PageLimit: pageLimit})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var wg sync.WaitGroup

	// Local ground truth #1: the in-process watcher fold, per epoch.
	// It is opened here, before any remote watcher or commit can run, so its
	// anchor is the oldest and it sees every epoch a remote fold can.
	localRef := &svcFoldRecord{name: "local", views: views, byEp: make(map[uint64]map[string]string)}
	wat, err := eng.Watch(ivmeps.WatchOptions{})
	if err != nil {
		t.Fatalf("local watch: %v", err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer wat.Close()
		anchor := wat.Snapshot()
		st := make(svcState)
		for _, v := range views {
			rows, mults, err := anchor.ViewRows(v)
			if err != nil {
				t.Errorf("local anchor %s: %v", v, err)
				return
			}
			vm := make(map[string]int64, len(rows))
			for i := range rows {
				vm[svcKey(rows[i])] = mults[i]
			}
			st[v] = vm
		}
		localRef.byEp[anchor.Epoch()] = svcCanonAll(st, views)
		localRef.lastEp = anchor.Epoch()
		anchor.Close()
		for ev, err := range wat.Events() {
			if err != nil {
				t.Errorf("local watch fold: %v", err)
				return
			}
			svcFold(st, ev)
			localRef.byEp[ev.Epoch] = svcCanonAll(st, views)
			localRef.lastEp = ev.Epoch
			if ev.Epoch >= finalEp {
				return
			}
		}
	}()

	// Local ground truth #2: the reference join per epoch, maintained by
	// the committer below. resultAt[e] is the canonical Q result at epoch e.
	resultAt := make([]string, finalEp+1)
	resultAt[buildEp] = ""

	// Remote watcher folds, compared against localRef post-hoc. Watcher
	// goroutines fold independently; races with the committer are the point.
	var foldMu sync.Mutex
	var folds []*svcFoldRecord
	remoteWatcher := func(name string, watchViews []string, churnEvery int) {
		defer wg.Done()
		foldViews := watchViews
		if foldViews == nil {
			foldViews = views
		}
		rec := &svcFoldRecord{name: name, views: foldViews, byEp: make(map[uint64]map[string]string)}
		foldMu.Lock()
		folds = append(folds, rec)
		foldMu.Unlock()

		st := make(svcState)
		var lastEp uint64
		open := func(fromEpoch uint64) (*client.Watcher, bool) {
			w, err := c.Watch(ctx, client.WatchOptions{Views: watchViews, FromEpoch: fromEpoch})
			if err != nil {
				t.Errorf("%s: watch open: %v", name, err)
				return nil, false
			}
			if !w.Resumed() {
				// Fresh (or reset) anchor: replace the folded state.
				st = make(svcState)
				for _, v := range foldViews {
					rows, mults, ok := w.AnchorRows(v)
					if !ok {
						t.Errorf("%s: anchor missing view %s", name, v)
						w.Close()
						return nil, false
					}
					vm := make(map[string]int64, len(rows))
					for i := range rows {
						vm[svcKey(rows[i])] = mults[i]
					}
					st[v] = vm
				}
				lastEp = w.Epoch()
				rec.byEp[lastEp] = svcCanonAll(st, foldViews)
				rec.lastEp = lastEp
			} else if w.Epoch() != fromEpoch {
				t.Errorf("%s: resumed at epoch %d, asked for %d", name, w.Epoch(), fromEpoch)
			}
			return w, true
		}

		w, ok := open(0)
		if !ok {
			return
		}
		defer func() { w.Close() }()
		events := 0
		for lastEp < finalEp {
			advanced := false
			for ev, err := range w.Events() {
				if err != nil {
					t.Errorf("%s: events: %v", name, err)
					return
				}
				if ev.Epoch != lastEp+1 {
					t.Errorf("%s: epoch gap %d → %d", name, lastEp, ev.Epoch)
					return
				}
				svcFold(st, ev)
				lastEp = ev.Epoch
				rec.byEp[lastEp] = svcCanonAll(st, foldViews)
				rec.lastEp = lastEp
				advanced = true
				events++
				if lastEp >= finalEp {
					return
				}
				if churnEvery > 0 && events%churnEvery == 0 {
					break // close and resume from lastEp
				}
			}
			if !advanced && churnEvery == 0 {
				t.Errorf("%s: stream ended at epoch %d before %d", name, lastEp, finalEp)
				return
			}
			if churnEvery > 0 {
				w.Close()
				w, ok = open(lastEp)
				if !ok {
					return
				}
			}
		}
	}
	wg.Add(3)
	go remoteWatcher("remote-full", nil, 0)
	go remoteWatcher("remote-filtered", views[:1], 0)
	go remoteWatcher("remote-churn", nil, 13)

	// Concurrent paginated readers: each full read must be the reference
	// join at exactly the epoch it observed. Observations are verified
	// post-hoc (the committer records resultAt[e] after Commit returns, so
	// a racing reader can observe e first).
	type readObs struct {
		epoch uint64
		canon string
	}
	done := make(chan struct{})
	var obsMu sync.Mutex
	var observations []readObs
	reader := func(lazy bool) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			m := make(map[string]int64)
			if lazy {
				// All doesn't expose the epoch, but the client enforces
				// one epoch across its pages; exercising it concurrently
				// with commits is the point. Content is epoch-checked via
				// the Rows path in the other reader.
				seq, errf := c.All(ctx, "")
				for row, mult := range seq {
					m[svcKey(row)] += mult
				}
				if err := errf(); err != nil {
					t.Errorf("reader: All: %v", err)
					return
				}
				continue
			}
			rows, mults, epoch, err := c.Rows(ctx, "")
			if err != nil {
				t.Errorf("reader: Rows: %v", err)
				return
			}
			for i := range rows {
				m[svcKey(rows[i])] += mults[i]
			}
			obsMu.Lock()
			observations = append(observations, readObs{epoch, svcCanon(m)})
			obsMu.Unlock()
		}
	}
	wg.Add(2)
	go reader(false)
	go reader(true)

	// The committer: the single writer. Random valid traffic against the
	// shadow base relations; after each commit the reference join for the
	// published epoch is recorded.
	rng := rand.New(rand.NewSource(seed * 7919))
	shadow := map[string]map[[2]int64]int64{"R": {}, "S": {}}
	join := func() string {
		m := make(map[string]int64)
		for rt, rm := range shadow["R"] {
			for st, sm := range shadow["S"] {
				if rt[1] == st[0] {
					m[svcKey([]int64{rt[0], st[1]})] += rm * sm
				}
			}
		}
		return svcCanon(m)
	}
	b := c.NewBatch()
	for k := 0; k < commits; k++ {
		b.Reset()
		pending := map[string]map[[2]int64]int64{"R": {}, "S": {}}
		n := 1 + rng.Intn(maxOps)
		for i := 0; i < n; i++ {
			rel := "R"
			if rng.Intn(2) == 1 {
				rel = "S"
			}
			if rng.Float64() < 0.3 {
				// Delete one unit from a tuple that still has weight.
				var candidates [][2]int64
				for tup, m := range shadow[rel] {
					if m+pending[rel][tup] > 0 {
						candidates = append(candidates, tup)
					}
				}
				if len(candidates) > 0 {
					tup := candidates[rng.Intn(len(candidates))]
					pending[rel][tup]--
					b.Delete(rel, []int64{tup[0], tup[1]})
					continue
				}
			}
			mult := int64(1 + rng.Intn(2))
			tup := [2]int64{int64(rng.Intn(domain)), int64(rng.Intn(domain))}
			pending[rel][tup] += mult
			b.Apply(rel, []int64{tup[0], tup[1]}, mult)
		}
		epoch, err := c.Commit(ctx, b)
		if err != nil {
			t.Fatalf("commit %d: %v", k, err)
		}
		if want := buildEp + uint64(k) + 1; epoch != want {
			t.Fatalf("commit %d published epoch %d, want %d", k, epoch, want)
		}
		for rel, pm := range pending {
			for tup, d := range pm {
				shadow[rel][tup] += d
				if shadow[rel][tup] == 0 {
					delete(shadow[rel], tup)
				}
			}
		}
		resultAt[epoch] = join()
	}
	close(done)
	wg.Wait()

	// Post-hoc verification. Every read observation matches the reference
	// join at its epoch, bit-identically.
	if len(observations) == 0 {
		t.Fatal("readers made no observations")
	}
	for _, o := range observations {
		if o.epoch < buildEp || o.epoch > finalEp {
			t.Fatalf("read observed impossible epoch %d", o.epoch)
		}
		if o.canon != resultAt[o.epoch] {
			t.Fatalf("remote read at epoch %d diverges from the reference join:\n got %s\nwant %s",
				o.epoch, o.canon, resultAt[o.epoch])
		}
	}

	// Every remote fold matches the local fold at every epoch it covers.
	if localRef.lastEp != finalEp {
		t.Fatalf("local fold stopped at epoch %d, want %d", localRef.lastEp, finalEp)
	}
	for _, rec := range folds {
		if rec.lastEp != finalEp {
			t.Errorf("%s: fold stopped at epoch %d, want %d", rec.name, rec.lastEp, finalEp)
			continue
		}
		for ep, got := range rec.byEp {
			want := localRef.byEp[ep]
			if want == nil {
				t.Errorf("%s: folded epoch %d the local watcher never saw", rec.name, ep)
				continue
			}
			for _, v := range rec.views {
				if got[v] != want[v] {
					t.Errorf("%s: view %s at epoch %d diverges from the local fold:\n got %s\nwant %s",
						rec.name, v, ep, got[v], want[v])
				}
			}
		}
	}
}
