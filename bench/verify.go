package main

import (
	"context"
	"fmt"
	"iter"
	"time"

	"ivmeps"
	"ivmeps/internal/client"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

// digest is an order-independent summary of a set of (row, multiplicity)
// pairs: their number and the wrapping sum of a 64-bit mix of each pair.
type digest struct {
	rows int64
	sum  uint64
}

func (d *digest) add(row []int64, mult int64) {
	h := uint64(fnvOffset)
	for _, v := range row {
		h = (h ^ uint64(v)) * fnvPrime
		h ^= h >> 29
	}
	h = (h ^ uint64(mult)) * fnvPrime
	d.rows++
	d.sum += h ^ h>>32
}

func digestOf(seq iter.Seq2[[]int64, int64]) digest {
	var d digest
	for row, mult := range seq {
		d.add(row, mult)
	}
	return d
}

// naiveDigest recomputes the query over the generator's live tuples with
// internal/naive — the repository's reference evaluator, which shares no
// code with the engine's view trees — and digests the result.
func naiveDigest(queryText string, st *stream) (digest, error) {
	q, err := query.Parse(queryText)
	if err != nil {
		return digest{}, err
	}
	db := naive.Database{}
	rels := make([]*relation.Relation, len(st.cfg.rels))
	for i, rs := range st.cfg.rels {
		for _, a := range q.Atoms {
			if a.Rel == rs.name {
				rels[i] = relation.New(a.Rel, a.Vars)
				db[a.Rel] = rels[i]
			}
		}
	}
	st.liveRows(func(rel int, row []int64) {
		if e := rels[rel].Add(tuple.Tuple(row), 1); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return digest{}, err
	}
	res, err := naive.Eval(q, db)
	if err != nil {
		return digest{}, err
	}
	var d digest
	res.ForEach(func(t tuple.Tuple, m int64) { d.add(t, m) })
	return d, nil
}

// check counts one correctness check as one attempted operation.
func (m *meter) check(ok bool, format string, args ...any) {
	m.attempted++
	if !ok {
		m.fail(1, format, args...)
	}
}

// verifyLimit is the largest result the end-of-run check recomputes in full.
// lib-skew's result has tens of millions of rows at full size; it is drained
// through the engine's own write path to a database whose result fits.
const (
	verifyLimit = 1 << 20
	drainKeep   = 2500
)

// verify runs the end-of-run correctness checks; every failed check is a
// failed operation. It leaves the instance closed.
func (in *instance) verify(m *meter) (recover time.Duration) {
	c := in.cfg
	if c.remote {
		in.verifyRemote(m)
	}
	if in.st.joinSize > verifyLimit {
		ops := in.st.drain(drainKeep, nil)
		for lo := 0; lo < len(ops); lo += 500 {
			batch := ops[lo:min(lo+500, len(ops))]
			m.attempted++
			if err := newLocal(in.eng).commit(c.data.rels, batch); err != nil {
				m.fail(1, "drain commit: %v", err)
			}
		}
	}
	want, err := naiveDigest(c.query, in.st)
	m.check(err == nil, "naive recomputation: %v", err)
	got := digestOf(in.eng.All())
	m.check(got == want && got.rows == in.st.joinSize,
		"final result: engine has %d rows (digest %x), naive recomputation %d rows (digest %x), generator expects %d",
		got.rows, got.sum, want.rows, want.sum, in.st.joinSize)
	m.check(in.eng.N() == in.st.liveCount(), "final N: engine %d, generator %d", in.eng.N(), in.st.liveCount())

	if !c.durable {
		m.check(in.close() == nil, "close")
		return 0
	}
	// Durable: the state after Close → Open must be the state before Close.
	snap, err := in.eng.Snapshot()
	if err != nil {
		m.check(false, "snapshot before close: %v", err)
		in.close()
		return 0
	}
	epoch, n := snap.Epoch(), in.eng.N()
	snap.Close()
	dir := in.walDir
	in.walDir = "" // keep the directory across close
	m.check(in.close() == nil, "close")
	in.walDir = dir
	defer in.close() // removes the directory

	opts := c.opts
	opts.Durability = ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways}
	t := time.Now()
	re, err := ivmeps.Open(in.q, opts)
	recover = time.Since(t)
	if err != nil {
		m.check(false, "reopen: %v", err)
		return recover
	}
	rs, err := re.Snapshot()
	if err != nil {
		m.check(false, "snapshot after reopen: %v", err)
		re.Close()
		return recover
	}
	back := digestOf(rs.All())
	m.check(rs.Epoch() == epoch && re.N() == n && back == got,
		"recovered state: epoch %d N %d rows %d digest %x, before close: epoch %d N %d rows %d digest %x",
		rs.Epoch(), re.N(), back.rows, back.sum, epoch, n, got.rows, got.sum)
	rs.Close()
	m.check(re.Close() == nil, "close after reopen")
	return recover
}

// verifyRemote checks, at one epoch, that a remote watcher's fold over its
// anchor, a paginated remote read, and the local engine agree on every view,
// and that a paginated read of the result agrees with the local engine.
func (in *instance) verifyRemote(m *meter) {
	ctx := context.Background()
	w, err := in.reader.Watch(ctx, client.WatchOptions{Buffer: 256})
	if err != nil {
		m.check(false, "verify watch: %v", err)
		return
	}
	defer w.Close()
	fold := map[string]map[[8]int64]int64{} // view → row (padded) → multiplicity
	key := func(row []int64) (k [8]int64) {
		k[7] = int64(len(row))
		copy(k[:7], row)
		return k
	}
	for _, v := range w.Views() {
		fold[v] = map[[8]int64]int64{}
		rows, mults, _ := w.AnchorRows(v)
		for i := range rows {
			fold[v][key(rows[i])] += mults[i]
		}
	}
	const extra = 64
	for _, cm := range in.genSlide(extra) {
		in.send(m, in.callers[0], -1, cm)
	}
	last := w.Epoch()
	seen := 0
	for ev, err := range w.Events() {
		if err != nil {
			m.check(false, "verify watch stream: %v", err)
			return
		}
		for _, d := range ev.Deltas {
			for i := range d.Rows {
				k := key(d.Rows[i])
				if fold[d.View][k] += d.Mults[i]; fold[d.View][k] == 0 {
					delete(fold[d.View], k)
				}
			}
		}
		last = ev.Epoch
		if seen++; seen == extra {
			break
		}
	}
	snap, err := in.eng.Snapshot()
	if err != nil {
		m.check(false, "verify snapshot: %v", err)
		return
	}
	defer snap.Close()
	m.check(snap.Epoch() == last, "watch fold is at epoch %d, engine at %d", last, snap.Epoch())
	for _, v := range w.Views() {
		var folded digest
		for k, mult := range fold[v] {
			folded.add(k[:k[7]], mult)
		}
		rows, mults, epoch, err := in.reader.Rows(ctx, v)
		var paged digest
		for i := range rows {
			paged.add(rows[i], mults[i])
		}
		lrows, lmults, lerr := snap.ViewRows(v)
		var loc digest
		for i := range lrows {
			loc.add(lrows[i], lmults[i])
		}
		m.check(err == nil && lerr == nil && epoch == last && folded == loc && paged == loc,
			"view %s at epoch %d: watch fold %v, paginated read %v (epoch %d, %v), local %v (%v)",
			v, last, folded, paged, epoch, err, loc, lerr)
	}
	rows, mults, epoch, err := in.reader.Rows(ctx, "")
	var paged digest
	for i := range rows {
		paged.add(rows[i], mults[i])
	}
	loc := digestOf(snap.All())
	m.check(err == nil && epoch == last && paged == loc, "result at epoch %d: paginated read %v (epoch %d, %v), local %v", last, paged, epoch, err, loc)
}

// String renders the digest for failure messages.
func (d digest) String() string { return fmt.Sprintf("%d rows/%x", d.rows, d.sum) }
