package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"ivmeps"
)

// meter collects what the repetitions measure: one plain clock-time value
// per repetition for each timed quantity — a run reports their medians — and
// sums of the exact counts.
type meter struct {
	tr  *tracer
	rep int // current repetition, −1 outside

	attempted, failed int64
	errs              []string // the first few failures, for the report

	updPerS  []float64 // updates acknowledged ÷ wall time of the repetition's unwatched bursts W1
	watchMS  []float64 // median delivery time of the repetition's watched burst W2
	firstUS  []float64 // fresh enumeration open → first row
	rowsPerS []float64 // rows ÷ wall time of the repetition's enumeration passes

	updates   int64 // from Stats, over the repetitions' bursts, W1 and W2
	deltas    int64
	enumRows  int64 // over all enumeration passes
	enumAlloc int64 // whole-process mallocs during them
	lagged    int64 // watch streams that ended in a lag eviction

	major, minor []float64 // rebalances per repetition (Stats deltas)
	batches      int64     // Stats deltas over the repetitions
	batchRels    int64

	cur repSums // the current repetition's, folded into the slices above at its end

	// Filled by traced repetitions only.
	w1Mallocs, w1Commits   int64     // whole-process mallocs over W1 bursts, and their commits
	w1Ops                  int64     // and their ops
	w2Mallocs, w2Commits   int64     // same over W2 bursts
	w2Events               int64     // watch events delivered
	rowGapUS               []float64 // µs between consecutive enumerated rows
	firstPageMS, pageMS    []float64 // remote: wait for the first / a later page
	rebalCommit, allCommit float64   // lib-grow: wall seconds of commits that rebalanced / of all
}

// stack returns the whole-stack timings: for each, the median of what the
// clock read over the repetitions keep selects.
func (m *meter) stack(keep func(rep int) bool) map[string]float64 {
	pick := func(xs []float64) []float64 {
		var out []float64
		for r, x := range xs {
			if keep(r) {
				out = append(out, x)
			}
		}
		return out
	}
	return map[string]float64{
		"stack.updates_per_s":         median(pick(m.updPerS)),
		"stack.watch_delivery_ms_p50": median(pick(m.watchMS)),
		"stack.enum_first_row_us":     median(pick(m.firstUS)),
		"stack.enum_rows_per_s":       median(pick(m.rowsPerS)),
	}
}

// repSums is what one repetition's blocks add up to.
type repSums struct {
	w1Ops, rows     int
	w1Time, rowTime time.Duration
	watchMS         float64
	firstUS         []float64 // lib-*: the block of opens; svc-*: each pass's first row
}

func (m *meter) fail(n int64, format string, args ...any) {
	m.failed += n
	if len(m.errs) < 8 {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
}

// commit is the unit a caller sends: ops applied atomically.
type commit struct {
	lane int
	ops  []op
}

// genSlide pre-generates n sliding-window commits, alternating lanes, so the
// generator's own cost stays outside the timed blocks.
func (in *instance) genSlide(n int) []commit {
	c := in.cfg
	perRel := max(c.commitOps/(2*len(c.data.rels)), 1)
	out := make([]commit, n)
	for i := range out {
		lane := i % c.data.lanes
		if c.commitOps == 1 {
			// Single-tuple commits: insert and delete alternate, and relations take turns.
			rel := (i / 2) % len(c.data.rels)
			if i%2 == 0 {
				out[i] = commit{lane, in.st.insert(lane, rel, nil)}
			} else {
				out[i] = commit{lane, in.st.remove(lane, rel, nil)}
			}
			continue
		}
		out[i] = commit{lane, in.st.slide(lane, perRel, make([]op, 0, c.commitOps))}
	}
	return out
}

// genGrow pre-generates the insert-only commits that take every relation
// from its current size to target tuples, and genShrink the delete-only
// commits that take it back down, oldest first.
func (in *instance) genGrow(target int) []commit {
	c := in.cfg
	var out []commit
	for in.st.fifo[0][0].len() < target {
		ops := make([]op, 0, c.commitOps)
		for len(ops) < c.commitOps && in.st.fifo[0][0].len() < target {
			for r := range c.data.rels {
				ops = in.st.insert(0, r, ops)
			}
		}
		out = append(out, commit{0, ops})
	}
	return out
}

func (in *instance) genShrink(target int) []commit {
	c := in.cfg
	var out []commit
	for in.st.fifo[0][0].len() > target {
		ops := make([]op, 0, c.commitOps)
		for len(ops) < c.commitOps && in.st.fifo[0][0].len() > target {
			for r := range c.data.rels {
				ops = in.st.remove(0, r, ops)
			}
		}
		out = append(out, commit{0, ops})
	}
	return out
}

// send applies one commit through a caller, recording a span in traced runs.
func (in *instance) send(m *meter, b backend, parent int32, cm commit) {
	id := m.tr.begin("commit", parent, m.rep)
	err := b.commit(in.cfg.data.rels, cm.ops)
	m.tr.end(id)
	m.attempted++
	if err != nil {
		m.fail(1, "commit: %v", err)
	}
	if in.cfg.grow > 0 && m.tr != nil {
		in.noteRebalance(m, id)
	}
}

// noteRebalance attributes one commit's wall time to rebalancing when a
// rebalance counter advanced during it (lib-grow, traced repetitions).
func (in *instance) noteRebalance(m *meter, id int32) {
	d := float64(m.tr.spans[id].End-m.tr.spans[id].Start) / 1e9
	st := in.eng.Stats()
	if st.MajorRebalances+st.MinorRebalances != in.lastRebal {
		in.lastRebal = st.MajorRebalances + st.MinorRebalances
		m.rebalCommit += d
	}
	m.allCommit += d
}

// burst runs commits as an unwatched write burst W1, timed as one block.
// With two committers lane j's commits go to caller j, concurrently, so
// commits queue on the server's commit lock exactly as two independent
// clients' would.
func (in *instance) burst(m *meter, commits []commit) {
	blk := m.tr.begin("w1", -1, m.rep)
	defer m.tr.end(blk)
	var ms0, ms1 runtime.MemStats
	if m.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	ops := 0
	for i := range commits {
		ops += len(commits[i].ops)
	}
	t := time.Now()
	if len(in.callers) == 1 {
		for i := range commits {
			in.send(m, in.callers[0], blk, commits[i])
		}
	} else {
		in.fanOut(m, blk, commits)
	}
	m.cur.w1Time += time.Since(t)
	m.cur.w1Ops += ops
	if m.tr != nil {
		runtime.ReadMemStats(&ms1)
		m.w1Mallocs += int64(ms1.Mallocs - ms0.Mallocs)
		m.w1Commits += int64(len(commits))
		m.w1Ops += int64(ops)
	}
}

// fanOut sends commits through all callers concurrently, lane j on caller j.
func (in *instance) fanOut(m *meter, parent int32, commits []commit) {
	var wg sync.WaitGroup
	sub := make([]meter, len(in.callers)) // per-goroutine failure counts, merged below
	for j, b := range in.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub[j].tr, sub[j].rep = m.tr, m.rep
			for i := range commits {
				if commits[i].lane%len(in.callers) == j {
					in.send(&sub[j], b, parent, commits[i])
				}
			}
		}()
	}
	wg.Wait()
	for j := range sub {
		m.attempted += sub[j].attempted
		m.failed += sub[j].failed
		m.errs = append(m.errs, sub[j].errs...)
	}
}

// watchedBurst runs commits as burst W2: one watcher subscribed to every
// view consumes events on its own goroutine while callers[0] commits. The
// delivery time of a commit runs from just before the commit call to the
// event being in the watcher's hand. The watcher's buffer holds the whole
// burst, so a lag eviction here is a failure, not load shedding. The burst is
// summarized as the median of its delivery times.
func (in *instance) watchedBurst(m *meter, commits []commit) {
	blk := m.tr.begin("w2", -1, m.rep)
	defer m.tr.end(blk)
	b := in.callers[0]
	n := len(commits)
	m.attempted += int64(n) // each commit's event is an operation of its own
	events, stop, err := b.watch(n + 16)
	if err != nil {
		m.fail(int64(n), "watch: %v", err)
		return
	}
	var ms0, ms1 runtime.MemStats
	if m.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	origin := time.Now()
	sent := make([]time.Duration, n)
	got := make([]time.Duration, n)
	type outcome struct {
		delivered int
		err       error
	}
	done := make(chan outcome, 1) // one send, so the watcher never blocks on exit
	go func() {
		i := 0
		var last uint64
		for ev, err := range events {
			if err != nil {
				done <- outcome{i, err}
				return
			}
			if i > 0 && ev.Epoch != last+1 {
				done <- outcome{i, fmt.Errorf("watch: epoch %d after %d", ev.Epoch, last)}
				return
			}
			last = ev.Epoch
			got[i] = time.Since(origin)
			if i++; i == n {
				break
			}
		}
		done <- outcome{i, nil}
	}()
	for i := range commits {
		sent[i] = time.Since(origin)
		in.send(m, b, blk, commits[i])
	}
	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		stop() // unblocks the iteration; the goroutine then reports what it saw
		out = <-done
		out.err = errors.New("watch: events still missing 30 s after the last commit")
	}
	stop()
	if m.tr != nil {
		runtime.ReadMemStats(&ms1)
		m.w2Mallocs += int64(ms1.Mallocs - ms0.Mallocs)
		m.w2Commits += int64(n)
		m.w2Events += int64(out.delivered)
	}
	if out.err != nil || out.delivered < n {
		if errors.Is(out.err, ivmeps.ErrWatcherLagged) {
			m.lagged++
		}
		m.fail(int64(n-out.delivered), "watch: %d of %d events delivered: %v", out.delivered, n, out.err)
	}
	lat := make([]float64, out.delivered)
	for i := range lat {
		lat[i] = float64(got[i]-sent[i]) / 1e6
	}
	m.cur.watchMS = median(lat)
	in.awaitNoWatchers(m)
}

// awaitNoWatchers waits until the server has torn its side of a closed watch
// stream down, so the engine's capture is disarmed again before the next
// unwatched burst. Local watchers are gone when Close returns.
func (in *instance) awaitNoWatchers(m *meter) {
	if in.reader == nil {
		return
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		sr, err := in.reader.Stats(context.Background())
		if err == nil && sr.Watchers == 0 {
			return
		}
		if time.Now().After(deadline) {
			m.fail(1, "server still reports a watcher 5 s after Close (stats error: %v)", err)
			return
		}
	}
}

// enumerate runs one enumeration pass, stopping after cfg.enumCap rows, and
// checks the number of rows against the generator's join size.
func (in *instance) enumerate(m *meter) {
	blk := m.tr.begin("enum", -1, m.rep)
	defer m.tr.end(blk)
	seq, errf := in.callers[0].all()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rows := 0
	want := int(min(int64(in.cfg.enumCap), in.st.joinSize))
	var first time.Duration
	t := time.Now()
	if m.tr == nil {
		for range seq {
			if rows == 0 {
				first = time.Since(t)
			}
			if rows++; rows >= in.cfg.enumCap {
				break
			}
		}
	} else {
		// Traced: stamp every row, which costs a clock read per row.
		prev := t
		for range seq {
			now := time.Now()
			if rows == 0 {
				first = now.Sub(t)
			}
			gap := float64(now.Sub(prev)) / 1e3
			prev = now
			switch {
			case in.cfg.pageLimit == 0 || rows%in.cfg.pageLimit != 0:
				m.rowGapUS = append(m.rowGapUS, gap)
			case rows == 0:
				m.firstPageMS = append(m.firstPageMS, gap/1e3)
			default:
				m.pageMS = append(m.pageMS, gap/1e3)
			}
			if rows++; rows >= in.cfg.enumCap {
				break
			}
		}
	}
	d := time.Since(t)
	runtime.ReadMemStats(&ms1)
	m.attempted++
	if err := errf(); err != nil {
		m.fail(1, "enumeration: %v", err)
		return
	}
	if rows != want {
		m.fail(1, "enumeration yielded %d rows, the join of the live tuples has %d (cap %d)", rows, in.st.joinSize, in.cfg.enumCap)
		return
	}
	m.cur.rows += rows
	m.cur.rowTime += d
	if in.cfg.remote {
		m.cur.firstUS = append(m.cur.firstUS, float64(first)/1e3)
	}
	m.enumRows += int64(rows)
	m.enumAlloc += int64(ms1.Mallocs - ms0.Mallocs)
}

// openBurst times cfg.opens fresh enumerations up to their first row as one
// block. Only the lib-* workloads run it: a remote read abandoned after its
// first page leaves a cursor that pins its snapshot until it expires 30 s
// later, every commit burst then copies the relations once more for it, and
// ten pinned generations of a 600 000-tuple database are what the process's
// memory then consists of. svc-* take their first-row times from full passes
// instead, which release their cursor.
func (in *instance) openBurst(m *meter) {
	blk := m.tr.begin("opens", -1, m.rep)
	defer m.tr.end(blk)
	t := time.Now()
	for i := 0; i < in.cfg.opens; i++ {
		seq, _ := in.callers[0].all()
		got := false
		for range seq {
			got = true
			break
		}
		m.attempted++
		if !got {
			m.fail(1, "open: no first row")
		}
	}
	m.cur.firstUS = append(m.cur.firstUS, float64(time.Since(t))/1e3/float64(in.cfg.opens))
}

// stats reads the engine's counters through the workload's own surface.
func (in *instance) stats(m *meter) ivmeps.Stats {
	st, err := in.callers[0].stats()
	if err != nil {
		m.fail(1, "stats: %v", err)
	}
	return st
}

// repetition runs one repetition's timed blocks. Blocks of different kinds
// alternate within a repetition, so a slow stretch of the machine hits every
// metric alike instead of landing on one.
func (in *instance) repetition(m *meter, rep int) {
	m.rep = rep
	defer func() { m.rep = -1 }()
	m.cur = repSums{watchMS: math.NaN()} // a block that fails leaves NaN; the run has then counted a failure
	c := in.cfg
	// One collection per repetition, not per block: at lib-skew's live heap
	// a forced collection takes 0.1 s, four per repetition would be a third
	// of the run, and the unwatched lib bursts allocate nothing anyway.
	runtime.GC()
	begin := in.stats(m)

	read := func() {
		if !c.remote {
			in.enumerate(m)
			in.openBurst(m)
			return
		}
		for i := 0; i < c.passes; i++ {
			in.enumerate(m)
		}
	}
	if c.grow == 0 {
		in.burst(m, in.genSlide(c.w1Commits))
		in.watchedBurst(m, in.genSlide(c.w2Commits))
		read()
	} else {
		// lib-grow: grow unwatched, read at the peak, shrink back unwatched,
		// then a second, watched, grow-and-shrink cycle as W2.
		base := c.data.rels[0].base
		peak := base * c.grow
		in.burst(m, in.genGrow(peak))
		read()
		in.burst(m, in.genShrink(base))
		in.watchedBurst(m, append(in.genGrow(peak), in.genShrink(base)...))
	}

	m.updPerS = append(m.updPerS, float64(m.cur.w1Ops)/m.cur.w1Time.Seconds())
	m.watchMS = append(m.watchMS, m.cur.watchMS)
	m.firstUS = append(m.firstUS, median(m.cur.firstUS))
	m.rowsPerS = append(m.rowsPerS, float64(m.cur.rows)/m.cur.rowTime.Seconds())

	end := in.stats(m)
	m.updates += end.Updates - begin.Updates
	m.deltas += end.ViewDeltas - begin.ViewDeltas
	m.major = append(m.major, float64(end.MajorRebalances-begin.MajorRebalances))
	m.minor = append(m.minor, float64(end.MinorRebalances-begin.MinorRebalances))
	m.batches += end.Batches - begin.Batches
	m.batchRels += end.BatchRelations - begin.BatchRelations
}
