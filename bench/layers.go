package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ivmeps"
	"ivmeps/internal/client"
	"ivmeps/internal/core"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/server"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
	"ivmeps/internal/wal"
)

// layers computes the per-layer metrics of a traced run. This change may not
// put spans inside the program, so inner layers are reached by peeling: the
// same kind of input is replayed against successively lower public entry
// points — client.Commit → Server.ServeHTTP on a recorder → server.DecodeOps
// and Engine.Commit → wal.Log.Append on a stand-alone log — and a layer's
// self time is the difference between two levels. The levels run interleaved
// in rounds so that a slow stretch of the machine hits all of them.
type layers struct {
	cfg *config
	in  *instance
	m   *meter
	tr  *tracer

	cal     *calibrator
	calibMS []float64

	checkpointMS float64
	v            map[string]float64 // metric name → value, filled by peel
}

func newLayers(cfg *config, in *instance, m *meter) *layers {
	return &layers{cfg: cfg, in: in, m: m, tr: m.tr, cal: newCalibrator(cfg.tiny), v: map[string]float64{}}
}

// between runs before each repetition of a traced run: it times the
// calibration kernel, and switches span recording on for even repetitions
// and off for odd ones, so the run carries its own untraced baseline for the
// tracing overhead.
func (l *layers) between(rep int) {
	l.calibMS = append(l.calibMS, l.cal.sample())
	if rep%2 == 0 {
		l.m.tr = l.tr
	} else {
		l.m.tr = nil
	}
}

// spanDurations returns the durations, in µs, of the spans called name whose
// parent is called parent.
func (l *layers) spanDurations(name, parent string) []float64 {
	var out []float64
	sp := l.tr.spans
	for i := range sp {
		if sp[i].Name == name && sp[i].Rep >= 0 && sp[i].Parent >= 0 && sp[sp[i].Parent].Name == parent {
			out = append(out, float64(sp[i].End-sp[i].Start)/1e3)
		}
	}
	return out
}

// peel runs after the last repetition, on the instance the repetitions used.
func (l *layers) peel() {
	l.m.tr = l.tr
	l.common()
	switch {
	case l.cfg.remote:
		l.peelService()
	case l.cfg.grow > 0:
		l.peelGrow()
	}
}

// hashSink keeps the compiler from dropping the timed tuple.Hash calls.
var hashSink uint64

// common measures the layers every workload has.
func (l *layers) common() {
	c, in, v := l.cfg, l.in, l.v

	// viewtree: query text → variable order → view trees.
	var plan []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		q, err := ivmeps.ParseQuery(c.query)
		if err != nil {
			l.m.check(false, "plan: %v", err)
			return
		}
		e, err := ivmeps.New(q, c.opts)
		if err != nil {
			l.m.check(false, "plan: %v", err)
			return
		}
		plan = append(plan, float64(time.Since(t))/1e3)
		e.Close()
	}
	v["viewtree.plan_us"] = median(plan)

	// relation and tuple: one relation's live tuples into a fresh indexed
	// relation, then one index probe and one hash per tuple.
	q, err := query.Parse(c.query)
	if err != nil {
		l.m.check(false, "layers: %v", err)
		return
	}
	atom := q.Atoms[0]
	rel := relation.New(atom.Rel, atom.Vars)
	keySchema := tuple.Schema{atom.Vars[c.data.rels[0].keyPos]}
	ix := rel.EnsureIndex(keySchema)
	var rows [][]int64
	in.st.liveRows(func(r int, row []int64) {
		if r == 0 {
			rows = append(rows, row)
		}
	})
	t := time.Now()
	for _, row := range rows {
		if err := rel.Add(tuple.Tuple(row), 1); err != nil {
			l.m.check(false, "relation.Add: %v", err)
			return
		}
	}
	v["relation.add_ns"] = float64(time.Since(t)) / float64(len(rows))
	key := make(tuple.Tuple, 1)
	found := 0
	t = time.Now()
	for _, row := range rows {
		key[0] = row[c.data.rels[0].keyPos]
		if ix.FirstMatch(key) != nil {
			found++
		}
	}
	v["relation.probe_ns"] = float64(time.Since(t)) / float64(len(rows))
	l.m.check(found == len(rows), "relation probe found %d of %d keys", found, len(rows))
	t = time.Now()
	for _, row := range rows {
		hashSink += tuple.Hash(12345, tuple.Tuple(row))
	}
	v["tuple.hash_ns"] = float64(time.Since(t)) / float64(len(rows))

	// core: snapshot capture.
	const snaps = 2000
	t = time.Now()
	for i := 0; i < snaps; i++ {
		s, err := in.eng.Snapshot()
		if err != nil {
			l.m.check(false, "snapshot: %v", err)
			return
		}
		s.Close()
	}
	v["core.snapshot_us"] = float64(time.Since(t)) / 1e3 / snaps

	// core: enumeration work per row, in the engine's own machine-independent
	// unit (cursor advances and multiplicity lookups — the paper's delay
	// measure), on a twin core.Engine preprocessed over the same live tuples.
	db := naive.Database{}
	for i, rs := range c.data.rels {
		db[rs.name] = relation.New(q.Atoms[i].Rel, q.Atoms[i].Vars)
	}
	in.st.liveRows(func(r int, row []int64) { db[c.data.rels[r].name].MustAdd(tuple.Tuple(row), 1) })
	twin, err := core.New(q, core.Options{Mode: viewtree.Dynamic, Epsilon: c.opts.Epsilon, Workers: 1})
	if err == nil {
		err = core.Preprocess(twin, db)
	}
	if err != nil {
		l.m.check(false, "twin engine: %v", err)
		return
	}
	it := twin.Result()
	w0 := twin.Work()
	var perRow []float64
	for len(perRow) < 100000 {
		if _, _, ok := it.Next(); !ok {
			break
		}
		w1 := twin.Work()
		if len(perRow) == 0 {
			v["core.enum_open_ops"] = float64(w1 - w0)
		}
		perRow = append(perRow, float64(w1-w0))
		w0 = w1
	}
	it.Close()
	twin.Close()
	sum := 0.0
	for _, x := range perRow {
		sum += x
	}
	v["core.enum_ops_per_row_mean"] = sum / float64(len(perRow))
	v["core.enum_ops_per_row_p99"] = percentile(perRow, 99)
}

// cycler is what a grow-and-shrink probe needs of an engine; *ivmeps.Engine
// and *ivmeps.Sharded both have it.
type cycler interface {
	Load(rel string, rows ...[]int64) error
	Build() error
	NewBatch() *ivmeps.Batch
	Commit(b *ivmeps.Batch) error
}

// cycles builds a fresh engine over the workload's base data, runs one
// priming and two timed grow-and-shrink cycles through Batch/Commit, and
// returns the median µs per op. watch, if set, is called after Build to
// attach consumers and returns their stop function.
func (l *layers) cycles(e cycler, watch func() func()) float64 {
	c := l.cfg
	gen := &instance{cfg: c, st: newStream(1, c.data)}
	var err error
	gen.st.liveRows(func(r int, row []int64) {
		if e := e.Load(c.data.rels[r].name, row); e != nil && err == nil {
			err = e
		}
	})
	if err == nil {
		err = e.Build()
	}
	if err != nil {
		l.m.check(false, "cycle probe: %v", err)
		return 0
	}
	if watch != nil {
		defer watch()()
	}
	b := e.NewBatch()
	var perOp []float64
	for i := 0; i < 3; i++ {
		cs := append(gen.genGrow(c.data.rels[0].base*c.grow), gen.genShrink(c.data.rels[0].base)...)
		ops := 0
		t := time.Now()
		for _, cm := range cs {
			b.Reset()
			for _, o := range cm.ops {
				b.Apply(c.data.rels[o.rel].name, o.row, o.mult)
			}
			if err := e.Commit(b); err != nil {
				l.m.check(false, "cycle probe commit: %v", err)
				return 0
			}
			ops += len(cm.ops)
		}
		if i > 0 {
			perOp = append(perOp, float64(time.Since(t))/1e3/float64(ops))
		}
	}
	return median(perOp)
}

// peelGrow measures what only the batch workload exercises.
func (l *layers) peelGrow() {
	c, v := l.cfg, l.v
	q := l.in.q
	engine := func(workers int) *ivmeps.Engine {
		e, err := ivmeps.New(q, ivmeps.Options{Epsilon: c.opts.Epsilon, Workers: workers})
		if err != nil {
			l.m.check(false, "probe engine: %v", err)
		}
		return e
	}
	// Worker pool: the same cycles at Workers 1 and at the default.
	e1, e0 := engine(1), engine(0)
	seq := l.cycles(e1, nil)
	par := l.cycles(e0, nil)
	e1.Close()
	e0.Close()
	v["core.workers_speedup"] = seq / par

	// Federation: the same batches through two shards.
	sh, err := ivmeps.NewSharded(q, ivmeps.ShardedOptions{Options: ivmeps.Options{Epsilon: c.opts.Epsilon}, Shards: 2})
	if err != nil {
		l.m.check(false, "probe sharded: %v", err)
		return
	}
	v["federation.commit_us_per_op_k2"] = l.cycles(sh, nil)
	sh.Close()

	// Watch: the same cycles with 1 and with 8 in-process consumers.
	with := func(subs int) float64 {
		e := engine(0)
		defer e.Close()
		return l.cycles(e, func() func() {
			var wg sync.WaitGroup
			var ws []*ivmeps.Watcher
			for i := 0; i < subs; i++ {
				w, err := e.Watch(ivmeps.WatchOptions{Buffer: 4096})
				if err != nil {
					l.m.check(false, "probe watch: %v", err)
					continue
				}
				ws = append(ws, w)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, err := range w.Events() {
						if err != nil {
							atomic.AddInt64(&l.m.lagged, 1)
							return
						}
					}
				}()
			}
			return func() {
				for _, w := range ws {
					w.Close()
				}
				wg.Wait()
			}
		})
	}
	one, eight := with(1), with(8)
	opsPerCommit := float64(c.commitOps)
	v["watch.capture_us_per_commit"] = (one - par) * opsPerCommit
	v["watch.fanout_us_per_sub"] = (eight - one) * opsPerCommit / 7
}

// countFS counts the fsyncs and bytes of every file created through it.
type countFS struct {
	wal.VFS
	syncs, bytes atomic.Int64
}

type countFile struct {
	wal.File
	fs *countFS
}

// Write counts the bytes and passes them on.
func (f countFile) Write(p []byte) (int, error) {
	f.fs.bytes.Add(int64(len(p)))
	return f.File.Write(p)
}

// Sync counts the fsync and passes it on.
func (f countFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// Create wraps the created file in a counting one.
func (fs *countFS) Create(path string) (wal.File, error) {
	f, err := fs.VFS.Create(path)
	if err != nil {
		return nil, err
	}
	return countFile{f, fs}, nil
}

// peelService replays fresh sliding-window commits against each level of
// the service's commit path, and one full read against the page handler.
func (l *layers) peelService() {
	c, in, v := l.cfg, l.in, l.v
	const rounds, perRound = 4, 100
	encode := func(cm commit) []byte {
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		for _, o := range cm.ops {
			// Encoding a struct of a string, a slice of int64 and an int64 cannot fail.
			_ = enc.Encode(&server.Op{Rel: c.data.rels[o.rel].name, Row: o.row, Mult: o.mult})
		}
		return body.Bytes()
	}
	var logs [2]*wal.Log // stand-alone logs: SyncAlways, SyncOff
	var logDirs [2]string
	cfs := &countFS{VFS: wal.OSFS}
	if c.durable {
		for i, mode := range []wal.SyncMode{wal.SyncAlways, wal.SyncOff} {
			dir, err := os.MkdirTemp(tmpRoot, "peel-")
			if err == nil {
				logDirs[i] = dir
				opts := wal.Options{Dir: dir, Sync: mode}
				if i == 0 {
					opts.FS = cfs
				}
				logs[i], err = wal.Create(opts)
			}
			if err != nil {
				l.m.check(false, "stand-alone log: %v", err)
				return
			}
		}
		defer func() {
			for i := range logs {
				logs[i].Close()
				os.RemoveAll(logDirs[i])
			}
		}()
	}
	var clientUS, handlerUS, decodeUS, engineUS, walUS, walOffUS []float64
	var handlerMallocs, handlerCommits, walOps int64
	batch := in.eng.NewBatch()
	epoch := uint64(1)
	timed := func(name string, dst *[]float64, f func()) {
		id := l.tr.begin(name, -1, -1)
		t := time.Now()
		f()
		*dst = append(*dst, float64(time.Since(t))/1e3)
		l.tr.end(id)
	}
	for r := 0; r < rounds; r++ {
		for _, cm := range in.genSlide(perRound) {
			timed("peel.client", &clientUS, func() { in.send(l.m, in.callers[0], -1, cm) })
		}
		var ms0, ms1 runtime.MemStats
		var bodies [][]byte
		for _, cm := range in.genSlide(perRound) {
			bodies = append(bodies, encode(cm))
		}
		runtime.ReadMemStats(&ms0)
		for _, body := range bodies {
			timed("peel.handler", &handlerUS, func() {
				rec := httptest.NewRecorder()
				in.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/commit", bytes.NewReader(body)))
				l.m.check(rec.Code == http.StatusOK, "handler commit: status %d: %s", rec.Code, rec.Body.String())
			})
		}
		runtime.ReadMemStats(&ms1)
		handlerMallocs += int64(ms1.Mallocs - ms0.Mallocs)
		handlerCommits += int64(len(bodies))
		for _, body := range bodies {
			timed("peel.decode", &decodeUS, func() {
				ops, err := server.DecodeOps(bytes.NewReader(body), 0)
				l.m.check(err == nil && len(ops) == c.commitOps, "decode: %d ops, %v", len(ops), err)
			})
		}
		for _, cm := range in.genSlide(perRound) {
			timed("peel.engine", &engineUS, func() {
				batch.Reset()
				for _, o := range cm.ops {
					batch.Apply(c.data.rels[o.rel].name, o.row, o.mult)
				}
				err := in.eng.Commit(batch)
				l.m.check(err == nil, "engine commit: %v", err)
			})
			if !c.durable {
				continue
			}
			wops := make([]wal.Op, len(cm.ops))
			for i, o := range cm.ops {
				wops[i] = wal.Op{RelID: o.rel + 1, Mult: o.mult, Row: o.row}
			}
			epoch++
			walOps += int64(len(wops))
			timed("peel.wal", &walUS, func() { l.m.check(logs[0].Append(epoch, wops) == nil, "wal append") })
			timed("peel.wal_nosync", &walOffUS, func() { l.m.check(logs[1].Append(epoch, wops) == nil, "wal append (no sync)") })
		}
	}
	cl, h, d, e := median(clientUS), median(handlerUS), median(decodeUS), median(engineUS)
	v["client.net_self_us"] = cl - h
	v["server.handler_commit_us"] = h
	v["server.decode_us_per_commit"] = d
	v["server.self_us"] = h - d - e
	v["core.commit_us_per_op"] = e / float64(c.commitOps)
	v["server.allocs_per_commit"] = float64(handlerMallocs) / float64(handlerCommits)
	v["bench.peel_client_commit_us"] = cl
	if c.durable {
		v["wal.append_us"] = median(walUS)
		v["wal.append_nosync_us"] = median(walOffUS)
		v["wal.fsyncs_per_commit"] = float64(cfs.syncs.Load()) / float64(len(walUS))
		v["wal.bytes_per_op"] = float64(cfs.bytes.Load()) / float64(walOps)
	}

	// Page handler: one full read of the result, page by page, on a recorder.
	var pageUS []float64
	cursor := ""
	for first := true; first || cursor != ""; first = false {
		url := fmt.Sprintf("/v1/result/rows?limit=%d", c.pageLimit)
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		rec := httptest.NewRecorder()
		t := time.Now()
		in.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		d := float64(time.Since(t)) / 1e3
		if rec.Code != http.StatusOK {
			l.m.check(false, "handler page: status %d", rec.Code)
			break
		}
		if !first {
			pageUS = append(pageUS, d)
		}
		cursor = rec.Header().Get(server.HeaderNext)
	}
	v["server.handler_page_us"] = median(pageUS)

	// Frame codec: events of a few live commits, re-encoded as the server
	// frames them, through server.ParseFrame.
	w, err := in.reader.Watch(context.Background(), client.WatchOptions{FromEpoch: l.epochNow(), Buffer: 256})
	if err != nil {
		l.m.check(false, "frame probe watch: %v", err)
		return
	}
	const frames = 64
	for _, cm := range in.genSlide(frames) {
		in.send(l.m, in.callers[0], -1, cm)
	}
	var lines [][]byte
	for ev, err := range w.Events() {
		if err != nil {
			l.m.check(false, "frame probe stream: %v", err)
			break
		}
		f := server.Frame{Type: server.FrameEvent, Epoch: ev.Epoch}
		for _, dl := range ev.Deltas {
			f.Deltas = append(f.Deltas, server.Delta{View: dl.View, Rows: dl.Rows, Mults: dl.Mults})
		}
		line, _ := json.Marshal(&f) // a struct of strings, numbers and slices of them cannot fail to encode
		lines = append(lines, line)
		if len(lines) == frames {
			break
		}
	}
	w.Close()
	in.awaitNoWatchers(l.m)
	t := time.Now()
	const passes = 20
	for p := 0; p < passes; p++ {
		for _, line := range lines {
			if _, err := server.ParseFrame(line); err != nil {
				l.m.check(false, "ParseFrame: %v", err)
				return
			}
		}
	}
	v["client.parse_frame_ns"] = float64(time.Since(t)) / float64(passes*len(lines))
}

func (l *layers) epochNow() uint64 {
	e, err := l.in.reader.Epoch(context.Background())
	if err != nil {
		l.m.check(false, "epoch: %v", err)
	}
	return e
}

// metrics assembles the per-layer report: what peel measured, what the
// traced repetitions' spans and counts give, and the whole-stack timings of
// the untraced ones. A layer that is not on the workload's path has no entry
// (wal.* outside svc-durable, client.* and server.* on lib-*, …).
func (l *layers) metrics(times []setupTimes, stack map[string]float64, liveHeap float64, checksum uint64, recovered time.Duration) map[string]float64 {
	c, m, v := l.cfg, l.m, l.v
	for name, x := range stack {
		v[name] = x
	}
	var load, build []float64
	for _, ts := range times {
		load = append(load, ts.load.Seconds())
		build = append(build, ts.build.Seconds())
	}
	v["core.load_s"], v["core.build_s"], v["core.live_heap_mb"] = median(load), median(build), liveHeap

	w1 := l.spanDurations("commit", "w1")
	w2 := l.spanDurations("commit", "w2")
	switch {
	case c.remote:
		v["client.commit_ms_p50"] = percentile(w1, 50) / 1e3
		v["client.commit_ms_p99"] = percentile(w1, 99) / 1e3
		v["client.commit_ms_p999"] = percentile(w1, 99.9) / 1e3
		if c.committers == 1 { // with two, W1's commits queue behind each other and the difference means nothing
			v["watch.capture_us_per_commit"] = median(w2) - median(w1)
		}
		if m.w1Commits > 0 && m.w2Events > 0 {
			perCommit := float64(m.w1Mallocs) / float64(m.w1Commits)
			v["client.allocs_per_commit"] = perCommit
			v["client.allocs_per_event"] = (float64(m.w2Mallocs) - perCommit*float64(m.w2Commits)) / float64(m.w2Events)
		}
		v["client.page_ms"] = median(m.pageMS)
		v["server.first_page_count_ms"] = median(m.firstPageMS) - median(m.pageMS)
	case c.commitOps == 1:
		v["core.apply_us_p50"] = percentile(w1, 50)
		v["core.apply_us_p99"] = percentile(w1, 99)
		v["core.apply_us_p999"] = percentile(w1, 99.9)
		v["watch.capture_us_per_commit"] = median(w2) - median(w1)
	}
	if !c.remote && m.w1Ops > 0 {
		v["core.allocs_per_update"] = float64(m.w1Mallocs) / float64(m.w1Ops)
	}
	if c.grow > 0 && m.w1Ops > 0 {
		busy := 0.0
		for _, d := range w1 {
			busy += d
		}
		v["core.commit_us_per_op"] = busy / float64(m.w1Ops)
	}
	if m.allCommit > 0 {
		v["core.rebalance_commit_share"] = m.rebalCommit / m.allCommit
	}
	if m.batches > 0 {
		v["core.batch_fanout"] = float64(m.batchRels) / float64(m.batches)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(max(len(xs), 1))
	}
	v["core.major_rebalances"], v["core.minor_rebalances"] = mean(m.major), mean(m.minor)
	v["core.enum_gap_us_p99"] = percentile(m.rowGapUS, 99)
	v["watch.events_lagged"] = float64(m.lagged)
	if c.durable {
		v["wal.checkpoint_ms"] = l.checkpointMS
		v["wal.recover_ms"] = float64(recovered) / 1e6
	}

	// Harness self time: what the repetitions' block spans do not hand on to
	// a call into the program, as a share of the blocks' time.
	self := selfTimes(l.tr.spans)
	var blockSelf, blockAll int64
	for i, s := range l.tr.spans {
		if s.Parent == -1 && s.Rep >= 0 && (s.Name == "w1" || s.Name == "w2") {
			blockSelf += self[i]
			blockAll += s.End - s.Start
		}
	}
	if blockAll > 0 {
		v["bench.harness_self_pct"] = 100 * float64(blockSelf) / float64(blockAll)
	}
	v["bench.calib_ms"] = median(l.calibMS)
	var traced, plain []float64
	for r, x := range m.updPerS {
		if r%2 == 0 {
			traced = append(traced, x)
		} else {
			plain = append(plain, x)
		}
	}
	v["bench.trace_overhead_pct"] = 100 * (median(plain) - median(traced)) / median(plain)
	v["bench.input_checksum"] = float64(checksum & (1<<32 - 1))
	return v
}
