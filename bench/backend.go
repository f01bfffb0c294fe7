package main

import (
	"context"
	"iter"
	"time"

	"ivmeps"
	"ivmeps/internal/client"
)

// backend is the surface a workload drives: the in-process engine for the
// lib-* workloads, the HTTP client for svc-*. One backend is one caller —
// one goroutine, and on svc-* one connection.
type backend interface {
	// commit applies ops as one atomic commit and waits for the reply.
	commit(rels []relSpec, ops []op) error
	// watch subscribes to every view from the current epoch on, with room
	// for buffer undelivered commits.
	watch(buffer int) (events iter.Seq2[ivmeps.Event, error], stop func(), err error)
	// all opens a fresh enumeration of the query result; the error function
	// reports a failed pass after the loop.
	all() (iter.Seq2[[]int64, int64], func() error)
	stats() (ivmeps.Stats, error)
}

// local drives an *ivmeps.Engine directly. A one-op commit goes through
// Engine.Apply — the single-tuple path of core/update.go — and anything
// larger through Batch/Commit, the staged pipeline of core/batch.go.
type local struct {
	e     *ivmeps.Engine
	batch *ivmeps.Batch
}

func newLocal(e *ivmeps.Engine) *local { return &local{e: e, batch: e.NewBatch()} }

func (b *local) commit(rels []relSpec, ops []op) error {
	if len(ops) == 1 {
		return b.e.Apply(rels[ops[0].rel].name, ops[0].row, ops[0].mult)
	}
	b.batch.Reset()
	for i := range ops {
		b.batch.Apply(rels[ops[i].rel].name, ops[i].row, ops[i].mult)
	}
	return b.e.Commit(b.batch)
}

// watch gives the anchor snapshot back at once, as a consumer does that
// already holds the state: a snapshot left pinned makes every commit of the
// burst copy what it writes to.
func (b *local) watch(buffer int) (iter.Seq2[ivmeps.Event, error], func(), error) {
	w, err := b.e.Watch(ivmeps.WatchOptions{Buffer: buffer})
	if err != nil {
		return nil, nil, err
	}
	w.Snapshot().Close()
	return w.Events(), w.Close, nil
}

func (b *local) all() (iter.Seq2[[]int64, int64], func() error) {
	return b.e.All(), func() error { return nil }
}

func (b *local) stats() (ivmeps.Stats, error) { return b.e.Stats(), nil }

// remote drives the service through internal/client over loopback TCP.
type remote struct {
	c     *client.Client
	batch *client.Batch
}

func newRemote(c *client.Client) *remote { return &remote{c: c, batch: c.NewBatch()} }

func (b *remote) commit(rels []relSpec, ops []op) error {
	b.batch.Reset()
	for i := range ops {
		b.batch.Apply(rels[ops[i].rel].name, ops[i].row, ops[i].mult)
	}
	_, err := b.c.Commit(context.Background(), b.batch)
	return err
}

// watch resumes at the server's current epoch, which skips the anchor state
// dump: the benchmark measures delivery of commits, not the transfer of a
// view it already holds.
//
// The server's handler closes its anchor snapshot only after it has sent the
// frame that lets client.Watch return, so a commit sent at once can reach the
// engine while the snapshot is still pinned and make it copy the 520 000-tuple
// relation it writes to: one run of svc-mixed in four did, and its peak RSS
// read 270 MiB where the others read 210. The handler's goroutine has to get a
// processor back after its write, which one more round trip does not ensure
// and a pause with both processors idle does; nothing the server exposes tells
// when the snapshot is gone. (Closing the anchor before the ready frame would
// remove the race; that is a change to the server, not to the benchmark.)
func (b *remote) watch(buffer int) (iter.Seq2[ivmeps.Event, error], func(), error) {
	ctx := context.Background()
	epoch, err := b.c.Epoch(ctx)
	if err != nil {
		return nil, nil, err
	}
	w, err := b.c.Watch(ctx, client.WatchOptions{FromEpoch: epoch, Buffer: buffer})
	if err != nil {
		return nil, nil, err
	}
	time.Sleep(5 * time.Millisecond)
	return w.Events(), w.Close, nil
}

func (b *remote) all() (iter.Seq2[[]int64, int64], func() error) {
	return b.c.All(context.Background(), "")
}

func (b *remote) stats() (ivmeps.Stats, error) {
	sr, err := b.c.Stats(context.Background())
	if err != nil {
		return ivmeps.Stats{}, err
	}
	return ivmeps.Stats{
		Updates:         sr.Engine.Updates,
		MinorRebalances: sr.Engine.MinorRebalances,
		MajorRebalances: sr.Engine.MajorRebalances,
		ViewDeltas:      sr.Engine.ViewDeltas,
		Batches:         sr.Engine.Batches,
		BatchRelations:  sr.Engine.BatchRelations,
	}, nil
}
