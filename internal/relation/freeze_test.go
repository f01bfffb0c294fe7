package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"ivmeps/internal/tuple"
)

func entriesMap(r *Relation) map[string]int64 {
	out := map[string]int64{}
	r.ForEach(func(t tuple.Tuple, m int64) {
		out[fmt.Sprint(t)] = m
	})
	return out
}

// A frozen handle must observe exactly the contents at Freeze time, through
// every kind of mutation on the live relation: multiplicity changes,
// inserts, deletes, and Clear.
func TestFreezeObservesPinnedGeneration(t *testing.T) {
	r := New("R", tuple.Schema{"A", "B"})
	ix := r.EnsureIndex(tuple.Schema{"A"})
	for i := int64(0); i < 10; i++ {
		r.MustAdd(tuple.Tuple{i % 3, i}, 1)
	}
	want := entriesMap(r)
	wantSize := r.Size()
	wantCount := ix.Count(tuple.Tuple{1})

	f := r.Freeze()
	defer f.Release()

	// Mutate the live relation in every way.
	r.MustAdd(tuple.Tuple{0, 0}, 5)   // bump existing
	r.MustAdd(tuple.Tuple{7, 7}, 1)   // fresh insert
	r.MustAdd(tuple.Tuple{1, 1}, -1)  // delete
	r.MustAdd(tuple.Tuple{1, 100}, 3) // insert under indexed key 1
	if got := entriesMap(f); len(got) != len(want) {
		t.Fatalf("frozen entry count changed: %d != %d", len(got), len(want))
	} else {
		for k, m := range want {
			if got[k] != m {
				t.Fatalf("frozen entry %s: got mult %d, want %d", k, got[k], m)
			}
		}
	}
	if f.Size() != wantSize {
		t.Fatalf("frozen Size %d, want %d", f.Size(), wantSize)
	}
	if f.Mult(tuple.Tuple{0, 0}) != 1 {
		t.Fatalf("frozen Mult(0,0) = %d, want 1", f.Mult(tuple.Tuple{0, 0}))
	}
	if f.Mult(tuple.Tuple{7, 7}) != 0 {
		t.Fatalf("frozen sees post-freeze insert")
	}
	if f.Mult(tuple.Tuple{1, 1}) != 1 {
		t.Fatalf("frozen lost a deleted entry")
	}
	// The frozen handle's index view is pinned too.
	fix := f.EnsureIndex(tuple.Schema{"A"})
	if got := fix.Count(tuple.Tuple{1}); got != wantCount {
		t.Fatalf("frozen index Count(1) = %d, want %d", got, wantCount)
	}
	n := 0
	for id := fix.First(tuple.Tuple{1}); id != End; id = fix.Next(id) {
		n++
	}
	if n != wantCount {
		t.Fatalf("frozen index cursor visited %d entries, want %d", n, wantCount)
	}
	// The live handle and its cached index handle see the new state.
	if r.Mult(tuple.Tuple{7, 7}) != 1 || r.Mult(tuple.Tuple{0, 0}) != 6 {
		t.Fatalf("live handle lost mutations after detach: %v", r)
	}
	if got := ix.Count(tuple.Tuple{1}); got != wantCount { // -1 deleted, +1 inserted
		t.Fatalf("live index handle Count(1) = %d, want %d", got, wantCount)
	}

	// Clear on a pinned store must also preserve the frozen generation.
	f2 := r.Freeze()
	defer f2.Release()
	liveWant := entriesMap(r)
	r.Clear()
	if r.Size() != 0 {
		t.Fatalf("live not cleared")
	}
	got2 := entriesMap(f2)
	if len(got2) != len(liveWant) {
		t.Fatalf("frozen-at-clear lost entries: %d != %d", len(got2), len(liveWant))
	}
}

// Multiple freezes pin distinct generations independently.
func TestFreezeMultipleGenerations(t *testing.T) {
	r := New("R", tuple.Schema{"A"})
	r.MustAdd(tuple.Tuple{1}, 1)
	f1 := r.Freeze()
	r.MustAdd(tuple.Tuple{2}, 1)
	f2 := r.Freeze()
	r.MustAdd(tuple.Tuple{3}, 1)

	if f1.Size() != 1 || f2.Size() != 2 || r.Size() != 3 {
		t.Fatalf("generation sizes: f1=%d f2=%d live=%d", f1.Size(), f2.Size(), r.Size())
	}
	f1.Release()
	f2.Release()
	// With every pin released, mutation happens in place again.
	r.MustAdd(tuple.Tuple{4}, 1)
	if r.Size() != 4 {
		t.Fatalf("live size %d, want 4", r.Size())
	}
}

// After the last Release, the write path must be allocation-free again for
// steady-state churn (the pin check alone must not cost allocations), and
// an un-frozen relation must never pay for the snapshot machinery.
func TestFreezeReleaseRestoresZeroAllocChurn(t *testing.T) {
	r := New("R", tuple.Schema{"A", "B"})
	r.EnsureIndex(tuple.Schema{"A"})
	for i := int64(0); i < 64; i++ {
		r.MustAdd(tuple.Tuple{i % 8, i}, 1)
	}
	f := r.Freeze()
	r.MustAdd(tuple.Tuple{0, 0}, 1) // detach happens here
	f.Release()

	// Warm the post-detach store's arenas with one churn round.
	churn := func() {
		r.MustAdd(tuple.Tuple{3, 200}, 1)
		r.MustAdd(tuple.Tuple{3, 200}, -1)
		r.MustAdd(tuple.Tuple{0, 0}, 1)
		r.MustAdd(tuple.Tuple{0, 0}, -1)
	}
	churn()
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Fatalf("churn after Release allocates %v/op, want 0", allocs)
	}
}

// Mutating through a frozen handle is a bug in the caller; it must panic
// loudly rather than corrupt the pinned generation.
func TestFrozenMutationPanics(t *testing.T) {
	r := New("R", tuple.Schema{"A"})
	r.MustAdd(tuple.Tuple{1}, 1)
	f := r.Freeze()
	defer f.Release()

	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a frozen handle did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("MustAdd", func() { f.MustAdd(tuple.Tuple{2}, 1) })
	expectPanic("Clear", func() { f.Clear() })
	expectPanic("EnsureIndex(new)", func() { f.EnsureIndex(tuple.Schema{"A"}[:0:0]) })

	f2 := r.Freeze()
	f2.Release()
	expectPanic("double Release", func() { f2.Release() })
	expectPanic("Release of non-frozen", func() { r.Release() })
	// A released handle shares the writer's live store (pins back to 0);
	// mutating through it must still panic, not silently corrupt the store.
	expectPanic("MustAdd after Release", func() { f2.MustAdd(tuple.Tuple{3}, 1) })
	expectPanic("Clear after Release", func() { f2.Clear() })
}

// Randomized model check: interleave mutations with freezes and verify
// every pinned generation stays equal to the model state captured at its
// freeze point, while the live relation tracks the current model.
func TestFreezeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	r := New("R", tuple.Schema{"A", "B"})
	ix := r.EnsureIndex(tuple.Schema{"B"})
	model := map[[2]int64]int64{}

	type gen struct {
		f    *Relation
		want map[[2]int64]int64
	}
	var pinned []gen
	snapModel := func() map[[2]int64]int64 {
		out := make(map[[2]int64]int64, len(model))
		for k, v := range model {
			out[k] = v
		}
		return out
	}
	check := func(f *Relation, want map[[2]int64]int64) {
		total := 0
		f.ForEach(func(t2 tuple.Tuple, m int64) {
			if want[[2]int64{t2[0], t2[1]}] != m {
				t.Fatalf("generation mismatch at %v: got %d want %d", t2, m, want[[2]int64{t2[0], t2[1]}])
			}
			total++
		})
		if total != len(want) {
			t.Fatalf("generation has %d entries, want %d", total, len(want))
		}
	}

	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(100); {
		case op < 70: // random ±1 update
			k := [2]int64{rng.Int63n(20), rng.Int63n(20)}
			m := int64(1)
			if model[k] > 0 && rng.Intn(2) == 0 {
				m = -1
			}
			r.MustAdd(tuple.Tuple{k[0], k[1]}, m)
			model[k] += m
			if model[k] == 0 {
				delete(model, k)
			}
		case op < 75: // clear
			r.Clear()
			model = map[[2]int64]int64{}
		case op < 85 && len(pinned) < 4: // freeze
			pinned = append(pinned, gen{f: r.Freeze(), want: snapModel()})
		case op < 95 && len(pinned) > 0: // release one
			i := rng.Intn(len(pinned))
			check(pinned[i].f, pinned[i].want)
			pinned[i].f.Release()
			pinned = append(pinned[:i], pinned[i+1:]...)
		default: // verify everything
			for _, g := range pinned {
				check(g.f, g.want)
			}
			live := snapModel()
			check(r, live)
			// Index handle must track the live generation.
			bCount := map[int64]int{}
			for k := range model {
				bCount[k[1]]++
			}
			for b, n := range bCount {
				if got := ix.Count(tuple.Tuple{b}); got != n {
					t.Fatalf("live index Count(%d) = %d, want %d", b, got, n)
				}
			}
		}
	}
	for _, g := range pinned {
		check(g.f, g.want)
		g.f.Release()
	}
}

// A pinned store's first write copies a fixed number of flat columns, so
// detaching a 64 k-row relation allocates exactly what detaching a 1 k-row
// one does.
func TestDetachAllocsIndependentOfSize(t *testing.T) {
	detachAllocs := func(n int64) float64 {
		r := New("R", tuple.Schema{"A", "B"})
		r.EnsureIndex(tuple.Schema{"A"})
		for i := int64(0); i < n; i++ {
			r.MustAdd(tuple.Tuple{i % 100, i}, 1)
		}
		return testing.AllocsPerRun(20, func() {
			f := r.Freeze()
			r.MustAdd(tuple.Tuple{0, 0}, 1) // detaches
			f.Release()
		})
	}
	if small, large := detachAllocs(1<<10), detachAllocs(1<<16); small != large {
		t.Errorf("Freeze + first write + Release allocates %v at 1 k rows and %v at 64 k rows, want equal", small, large)
	}
}
