// Benchmarks for the ivmd HTTP service layer (internal/server +
// internal/client) over a loopback httptest listener. These measure the
// full wire path — NDJSON encode, HTTP round-trip, decode — on the same
// warmed insert/inverse commit cycle as the engine-side benchmarks, so the
// service overhead reads directly against BenchmarkUpdateSteadyState and
// BenchmarkWatchFanout, and one full remote read against
// BenchmarkEnumerate's in-process pass. allocs/op here includes the Go HTTP
// stack and is inherently nondeterministic; the CI allocs gate treats
// BenchmarkServer* with tolerance (cmd/benchdiff -alloc-nondet) while the
// engine-side benchmarks stay pinned exact.
package ivmeps_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"ivmeps"

	"ivmeps/internal/client"
	"ivmeps/internal/server"
)

// benchServer builds a warmed loopback service stack over the two-path
// query with benchN-scaled base relations.
func benchServer(b *testing.B) (*ivmeps.Engine, *client.Client, func()) {
	b.Helper()
	q := ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	e, err := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < benchN; i++ {
		if err := e.Load("R", []int64{rng.Int63n(benchN), rng.Int63n(64)}); err != nil {
			b.Fatal(err)
		}
		if err := e.Load("S", []int64{rng.Int63n(64), rng.Int63n(benchN)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(server.New(e, server.Options{}))
	c, err := client.New(hs.URL, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return e, c, func() {
		hs.Close()
		e.Close()
	}
}

// BenchmarkServerCommit measures the remote commit path: one warmed
// insert-batch-then-inverse cycle (16 rows per relation each way) per
// iteration, through client → HTTP → server → engine and back.
func BenchmarkServerCommit(b *testing.B) {
	_, c, closeAll := benchServer(b)
	defer closeAll()
	ctx := context.Background()

	const rowsPerRel = 16
	var rRows, sRows [][]int64
	for i := int64(0); i < rowsPerRel; i++ {
		rRows = append(rRows, []int64{benchN + i, i % 4})
		sRows = append(sRows, []int64{i % 4, 2*benchN + i})
	}
	batch := c.NewBatch()
	fill := func(mult int64) {
		batch.Reset()
		for i := range rRows {
			batch.Apply("R", rRows[i], mult)
			batch.Apply("S", sRows[i], mult)
		}
	}
	cycle := func() {
		fill(1)
		if _, err := c.Commit(ctx, batch); err != nil {
			b.Fatal(err)
		}
		fill(-1)
		if _, err := c.Commit(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkServerWatchFanout measures per-commit delta streaming to subs
// concurrent remote watchers: each iteration is one insert/inverse cycle,
// acknowledged by every watcher before the next commit — so ns/op covers
// encode, loopback TCP, decode, and client-side fold delivery.
func BenchmarkServerWatchFanout(b *testing.B) {
	for _, subs := range []int{1, 8} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			_, c, closeAll := benchServer(b)
			defer closeAll()
			ctx := context.Background()

			var wg sync.WaitGroup
			acks := make([]chan struct{}, subs)
			watchers := make([]*client.Watcher, subs)
			for i := range watchers {
				w, err := c.Watch(ctx, client.WatchOptions{Buffer: 8})
				if err != nil {
					b.Fatal(err)
				}
				watchers[i] = w
				acks[i] = make(chan struct{}, 1)
				wg.Add(1)
				go func(w *client.Watcher, ack chan<- struct{}) {
					defer wg.Done()
					for _, err := range w.Events() {
						if err != nil {
							b.Error(err)
							return
						}
						ack <- struct{}{}
					}
				}(watchers[i], acks[i])
			}

			const rowsPerRel = 16
			var rRows, sRows [][]int64
			for i := int64(0); i < rowsPerRel; i++ {
				rRows = append(rRows, []int64{benchN + i, i % 4})
				sRows = append(sRows, []int64{i % 4, 2*benchN + i})
			}
			batch := c.NewBatch()
			fill := func(mult int64) {
				batch.Reset()
				for i := range rRows {
					batch.Apply("R", rRows[i], mult)
					batch.Apply("S", sRows[i], mult)
				}
			}
			commit := func() {
				if _, err := c.Commit(ctx, batch); err != nil {
					b.Fatal(err)
				}
				for i := range acks {
					<-acks[i]
				}
			}
			cycle := func() {
				fill(1)
				commit()
				fill(-1)
				commit()
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			for _, w := range watchers {
				w.Close()
			}
			wg.Wait()
		})
	}
}

// BenchmarkServerRead measures one full remote read: client.All over
// loopback of the 65 536-row result of the q-hierarchical query the svc-*
// workloads serve (1 024 join keys, each with eight R and eight S rows) at
// PageLimit 2048 — one request, 32 rows frames and the closing frame.
// allocs/op is the whole read, both ends of the wire.
func BenchmarkServerRead(b *testing.B) {
	const keys, degree = 1024, 8
	e, err := ivmeps.New(ivmeps.MustParseQuery("Q(A, B, C) = R(A, B), S(A, C)"), ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for a := int64(0); a < keys; a++ {
		for i := int64(0); i < degree; i++ {
			if err := errors.Join(e.Load("R", []int64{a, i}), e.Load("S", []int64{a, i})); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Build(); err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(server.New(e, server.Options{}))
	defer hs.Close()
	c, err := client.New(hs.URL, client.Options{PageLimit: 2048})
	if err != nil {
		b.Fatal(err)
	}
	read := func() {
		seq, errf := c.All(context.Background(), "")
		rows := 0
		for range seq {
			rows++
		}
		if err := errf(); err != nil || rows != keys*degree*degree {
			b.Fatalf("read %d rows (%v), want %d", rows, err, keys*degree*degree)
		}
	}
	read() // the connection and the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}
