package ivmeps_test

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ivmeps"
	"ivmeps/internal/client"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/server"
	"ivmeps/internal/tuple"
	"ivmeps/internal/wal"
	"ivmeps/internal/wal/faultfs"
)

// The scenario driver behind the root property suites. A scenario is a
// script of steps replayed against one target — an engine from New or
// NewSharded, a durable engine, or internal/client over an internal/server
// loopback — either written out literally or drawn step by step from a seed.
// A model mirrors the base relations, and internal/naive evaluates the query
// over it: after every acknowledged commit the target's result must equal
// naive's, its epoch and N the model's, and every open watcher's fold must
// equal that epoch's Snapshot.ViewRows. A failure names the seed, the target
// and the step index, and prints the target and the script up to that step
// as Go literals: paste them into newScenario and run to replay it.
//
// The steps (Do, then the fields it reads):
//
//	load        LoadWeighted each of Ops (before Build)
//	build       Build
//	apply       Apply the one op of Ops
//	applybatch  commit Ops (one relation) through the scenario's one reused Batch (remote: as batch)
//	batch       commit Ops as one Batch (remote: a client Batch)
//	checkpoint  Checkpoint
//	reopen      Close, then Open the log directory
//	cut         Close, cut the log at byte N of its segments read as one stream, then Open
//	fault       fail the Nth file operation of kind Arg from now ("enospc": the Nth write, short)
//	watch       open a watcher over the view Arg ("" for all)
//	stall       open a watcher with buffer N that is read only when it is closed
//	close       close watcher N (in open order); Arg "resume" reopens a remote stream from its last epoch
//	hold        take a snapshot; release N checks snapshot N at its own epoch and closes it
//	read        one remote read of the result (N 0: Rows, 1: All), racing the steps after it
//	drain       drain the server: every watch stream ends with an end frame
//
// A commit the model says over-deletes must be refused with a
// MultiplicityError; one an injected fault fails must wedge the log, and is
// then recovered by Open, which may land on either side of it.

const (
	twoPath   = "Q(A, C) = R(A, B), S(B, C)"
	star      = "Q(A, B, C) = R(A, B), S(A, C)"
	multiTree = "Q(C, E) = R(A), S(A, B), T(A, B, C), U(A, D), V(A, D, E)"
)

// state is a bag of rows: row key → multiplicity.
type state map[string]int64

func key(row []int64) string { return fmt.Sprint(row) }

// bag collects a stream of distinct rows.
func bag(seq iter.Seq2[[]int64, int64]) (state, error) {
	st := state{}
	for row, m := range seq {
		k := key(row)
		if _, dup := st[k]; dup || m == 0 {
			return st, fmt.Errorf("row %s yielded twice or with multiplicity 0", k)
		}
		st[k] = m
	}
	return st, nil
}

func pairs(rows [][]int64, mults []int64) iter.Seq2[[]int64, int64] {
	return func(yield func([]int64, int64) bool) {
		for i := range rows {
			if !yield(rows[i], mults[i]) {
				return
			}
		}
	}
}

// diff reports a row on which got and want differ, or nil.
func diff(got, want state) error {
	for k, m := range want {
		if got[k] != m {
			return fmt.Errorf("row %s has multiplicity %d, want %d (%d rows, want %d)", k, got[k], m, len(got), len(want))
		}
	}
	for k, m := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("row %s (multiplicity %d) should not be there", k, m)
		}
	}
	return nil
}

// fold applies one watch event to per-view states.
func fold(views map[string]state, ev ivmeps.Event) error {
	for _, d := range ev.Deltas {
		st, ok := views[d.View]
		if !ok {
			return fmt.Errorf("epoch %d: delta for unwatched view %q", ev.Epoch, d.View)
		}
		for i, row := range d.Rows {
			if d.Mults[i] == 0 {
				return fmt.Errorf("epoch %d: view %q: zero-mult row %v", ev.Epoch, d.View, row)
			}
			k := key(row)
			if st[k] += d.Mults[i]; st[k] == 0 {
				delete(st, k)
			}
		}
	}
	return nil
}

func clone(views map[string]state) map[string]state {
	out := make(map[string]state, len(views))
	for v, st := range views {
		out[v] = maps.Clone(st)
	}
	return out
}

// model is the reference database: each base relation as row key → row
// and multiplicity, keys in first-insert order so that a seed always draws
// the same script.
type model struct {
	q    *query.Query
	rels map[string]*mrel
}

type mrel struct {
	arity int
	mult  map[string]int64
	rows  map[string][]int64
	keys  []string
}

func newModel(q *query.Query) *model {
	m := &model{q: q, rels: map[string]*mrel{}}
	for _, a := range q.Atoms {
		if m.rels[a.Rel] == nil {
			m.rels[a.Rel] = &mrel{arity: len(a.Vars), mult: map[string]int64{}, rows: map[string][]int64{}}
		}
	}
	return m
}

func (m *model) add(o op) {
	r, k := m.rels[o.Rel], key(o.Row)
	if _, ok := r.rows[k]; !ok {
		r.rows[k] = o.Row
		r.keys = append(r.keys, k)
	}
	r.mult[k] += o.Mult
}

// valid reports whether ops, applied in order, never take a multiplicity
// below zero.
func (m *model) valid(ops []op) bool {
	net := map[string]int64{}
	for _, o := range ops {
		k := key(o.Row)
		if net[o.Rel+k] += o.Mult; m.rels[o.Rel].mult[k]+net[o.Rel+k] < 0 {
			return false
		}
	}
	return true
}

// size is N: the distinct rows across the relations.
func (m *model) size() int {
	n := 0
	for _, r := range m.rels {
		for _, mult := range r.mult {
			if mult > 0 {
				n++
			}
		}
	}
	return n
}

// result is the oracle: the query over the model, by internal/naive.
func (m *model) result() state {
	db := naive.Database{}
	for _, a := range m.q.Atoms {
		if db[a.Rel] != nil {
			continue
		}
		db[a.Rel] = relation.New(a.Rel, a.Vars)
		r := m.rels[a.Rel]
		for _, k := range r.keys {
			if r.mult[k] > 0 {
				db[a.Rel].MustAdd(r.rows[k], r.mult[k])
			}
		}
	}
	out := state{}
	naive.MustEval(m.q, db).ForEach(func(t tuple.Tuple, mult int64) { out[key(t)] = mult })
	return out
}

type op struct {
	Rel  string
	Row  []int64
	Mult int64
}

// step is one scripted action; see the table at the top of the file.
type step struct {
	Do  string
	Ops []op
	N   int
	Arg string
}

// GoString prints the step as the literal a regression script holds.
func (s step) GoString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "{Do: %q", s.Do)
	if s.Ops != nil {
		b.WriteString(", Ops: []op{")
		for i, o := range s.Ops {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "{%q, %#v, %d}", o.Rel, o.Row, o.Mult)
		}
		b.WriteString("}")
	}
	if s.N != 0 {
		fmt.Fprintf(&b, ", N: %d", s.N)
	}
	if s.Arg != "" {
		fmt.Fprintf(&b, ", Arg: %q", s.Arg)
	}
	return b.String() + "}"
}

// target is one system under test.
type target struct {
	query  string
	eps    float64
	shards int   // > 0: NewSharded with this many shards (1 is New)
	seg    int64 // > 0: a SyncAlways write-ahead log with segments of this many bytes, on a faultfs
	remote bool  // served by internal/server and driven through internal/client
}

// supports reports whether the target takes steps of a kind; a generator
// draws no other.
func (tg target) supports(do string) bool {
	switch do {
	case "checkpoint", "reopen":
		return tg.seg > 0
	case "cut", "fault":
		return tg.seg > 0 && !tg.remote
	case "watch", "close":
		return tg.shards <= 1
	case "stall":
		return tg.shards <= 1 && !tg.remote
	case "apply", "applybatch":
		return !tg.remote
	case "read", "drain":
		return tg.remote
	}
	return true
}

// gen draws steps: load rows per relation, then kinds weighted by mix. A
// commit takes up to ops ops (per relation for a batch) over values below
// domain; deletes take a unit the model holds, and their share grows from
// 10 % to 90 % across the steps drawn, so the database grows across
// rebalance thresholds and shrinks back.
type gen struct {
	mix    map[string]int
	load   int
	ops    int
	domain int64
}

type epochRec struct {
	ops    []op
	result state
}

// watcher is one open watch stream and its fold.
type watcher struct {
	filter []string
	buffer int // a stalled watcher's
	local  *ivmeps.Watcher
	remote *client.Watcher
	done   chan struct{} // closed when the fold goroutine returns; nil while stalled

	mu   sync.Mutex
	st   map[string]state
	last uint64
	seen map[uint64]map[string]state // the fold at every epoch it passed
	err  error
}

type held struct {
	s        *ivmeps.Snapshot
	epoch    uint64
	result   state
	reopened bool
}

type read struct {
	from, epoch uint64 // when the read started, and the epoch it reports (0 for All)
	st          state
	err         error
}

type scenario struct {
	t    *testing.T
	tg   target
	seed int64
	rng  *rand.Rand
	q    *ivmeps.Query
	m    *model
	dir  string
	fs   *faultfs.FS
	eng  *ivmeps.Engine
	hs   *httptest.Server
	srv  *server.Server
	cl   *client.Client

	batch    *ivmeps.Batch // the applybatch steps' one Batch
	script   []step
	epoch    uint64 // the last acknowledged
	hist     map[uint64]epochRec
	views    map[uint64]map[string]state // the root views at each epoch a watcher was open
	watchers []*watcher
	held     []*held
	reads    sync.WaitGroup
	obs      []*read
	armed    bool // a fault step armed fs, and no failure has consumed it yet
	dead     bool // New or a failed Build left nothing to recover
	count    map[string]int
}

func newScenario(t *testing.T, tg target, seed int64) *scenario {
	q := query.MustParse(tg.query)
	sc := &scenario{t: t, tg: tg, seed: seed, rng: rand.New(rand.NewSource(seed)),
		q: ivmeps.MustParseQuery(tg.query), m: newModel(q), fs: faultfs.New(nil),
		hist: map[uint64]epochRec{}, views: map[uint64]map[string]state{}, count: map[string]int{}}
	if tg.seg > 0 {
		sc.dir = filepath.Join(t.TempDir(), "log")
	}
	t.Cleanup(sc.teardown)
	return sc
}

func (sc *scenario) fail(format string, args ...any) {
	sc.t.Helper()
	var b strings.Builder
	for _, s := range sc.script {
		fmt.Fprintf(&b, "\t%#v,\n", s)
	}
	sc.t.Fatalf("seed %d, target %#v, step %d: %s\nthe script up to that step:\n[]step{\n%s}",
		sc.seed, sc.tg, len(sc.script)-1, fmt.Sprintf(format, args...), b.String())
}

func (sc *scenario) tripped() bool { return sc.armed && sc.fs.Tripped() }

func (sc *scenario) opts() ivmeps.Options {
	o := ivmeps.Options{Epsilon: sc.tg.eps}
	if sc.tg.seg > 0 {
		o.Durability = ivmeps.Durability{Dir: sc.dir, Sync: ivmeps.SyncAlways, SegmentBytes: sc.tg.seg}
		ivmeps.SetDurabilityFS(&o.Durability, sc.fs)
	}
	return o
}

// run replays steps.
func (sc *scenario) run(steps ...step) {
	for _, s := range steps {
		if sc.dead {
			return
		}
		sc.script = append(sc.script, s)
		sc.exec(s)
	}
}

// load draws g.load rows per relation, loads them and builds.
func (sc *scenario) load(g gen) {
	var ops []op
	for _, rel := range sc.q.Relations() {
		for i := 0; i < g.load; i++ {
			ops = append(ops, op{rel, sc.row(rel, g.domain), 1})
		}
	}
	sc.run(step{Do: "load", Ops: ops}, step{Do: "build"})
}

// gen draws and runs n steps of the kinds in g.mix the target supports.
func (sc *scenario) gen(g gen, n int) {
	var kinds []string
	total := 0
	for _, k := range slices.Sorted(maps.Keys(g.mix)) {
		if sc.tg.supports(k) {
			kinds, total = append(kinds, k), total+g.mix[k]
		}
	}
	for i := 0; i < n && !sc.dead; i++ {
		r, k := sc.rng.Intn(total), ""
		for _, k = range kinds {
			if r -= g.mix[k]; r < 0 {
				break
			}
		}
		sc.run(sc.draw(g, k, float64(i)/float64(n)))
	}
}

func (sc *scenario) row(rel string, domain int64) []int64 {
	row := make([]int64, sc.m.rels[rel].arity)
	for i := range row {
		row[i] = sc.rng.Int63n(domain)
	}
	return row
}

func live[T any](xs []*T) []int {
	var out []int
	for i, x := range xs {
		if x != nil {
			out = append(out, i)
		}
	}
	return out
}

// draw fills in one step of kind do, at progress p through the script.
func (sc *scenario) draw(g gen, do string, p float64) step {
	s, rng := step{Do: do}, sc.rng
	switch do {
	case "apply", "applybatch", "batch":
		rels := sc.q.Relations()
		if do != "batch" {
			rels = rels[rng.Intn(len(rels)):][:1]
		}
		n := 1
		if do != "apply" {
			n += rng.Intn(g.ops)
		}
		for _, rel := range rels {
			r, taken := sc.m.rels[rel], map[string]int64{}
			for i := 0; i < n; i++ {
				if len(r.keys) > 0 && rng.Float64() < 0.1+0.8*p {
					if k := r.keys[rng.Intn(len(r.keys))]; r.mult[k] > taken[k] {
						taken[k]++
						s.Ops = append(s.Ops, op{rel, r.rows[k], -1})
						continue
					}
				}
				s.Ops = append(s.Ops, op{rel, sc.row(rel, g.domain), 1 + rng.Int63n(2)})
			}
		}
	case "cut":
		var bounds []int
		total := 0
		_, sizes := sc.segments()
		for _, size := range sizes {
			bounds = append(bounds, total, total+min(16, size), total+size)
			total += size
		}
		if s.N = rng.Intn(total + 1); rng.Intn(2) == 0 && len(bounds) > 0 {
			s.N = bounds[rng.Intn(len(bounds))]
		}
	case "fault":
		s.Arg, s.N = []string{"write", "filesync", "enospc"}[rng.Intn(3)], 1+rng.Intn(3)
	case "watch":
		if views := sc.eng.Views(); rng.Intn(3) == 0 {
			s.Arg = views[rng.Intn(len(views))]
		}
	case "stall":
		s.N = 1 + rng.Intn(8)
	case "close":
		open := live(sc.watchers)
		if len(open) == 0 {
			return sc.draw(g, "watch", p)
		}
		if s.N = open[rng.Intn(len(open))]; sc.tg.remote && rng.Intn(2) == 0 {
			s.Arg = "resume"
		}
	case "release":
		open := live(sc.held)
		if len(open) == 0 {
			return step{Do: "hold"}
		}
		s.N = open[rng.Intn(len(open))]
	case "read":
		s.N = rng.Intn(2)
	}
	return s
}

func (sc *scenario) exec(s step) {
	if sc.eng == nil && s.Do != "fault" {
		sc.create()
		if sc.dead {
			return
		}
	}
	switch s.Do {
	case "load":
		for _, o := range s.Ops {
			if err := sc.eng.LoadWeighted(o.Rel, o.Row, o.Mult); err != nil {
				sc.fail("LoadWeighted: %v", err)
			}
			sc.m.add(o)
		}
	case "build":
		sc.build()
	case "apply", "applybatch", "batch":
		sc.commit(s)
	case "checkpoint":
		var lwe *ivmeps.LogWedgedError
		if err := sc.eng.Checkpoint(); errors.As(err, &lwe) && sc.tripped() {
			sc.recover(nil) // a segment rotation inside Checkpoint wedged the log
		} else if err != nil && !sc.tripped() {
			sc.fail("Checkpoint: %v", err)
		} else if err != nil {
			sc.armed = false // the checkpoint alone failed: commits go on
		}
	case "reopen", "cut":
		if err := sc.shut(); err != nil && !sc.tripped() {
			sc.fail("Close: %v", err)
		}
		if s.Do == "cut" {
			sc.cut(s.N)
			e := sc.expectEpoch()
			if e < 1 || e > sc.epoch {
				sc.fail("the cut log recovers epoch %d, which was never acknowledged", e)
			}
			sc.rewind(e)
			sc.count["cut"]++
		}
		if err := sc.open(); err != nil {
			sc.fail("Open: %v", err)
		}
		sc.landed(nil)
	case "fault":
		if sc.armed = true; s.Arg == "enospc" {
			sc.fs.InjectShortWrite(s.N)
		} else {
			sc.fs.Inject(faultfs.Kind(s.Arg), s.N)
		}
	case "watch", "stall":
		sc.watch(s)
	case "close":
		sc.closeWatcher(s.N, s.Arg == "resume")
	case "hold":
		h, err := sc.eng.Snapshot()
		if err != nil {
			sc.fail("Snapshot: %v", err)
		}
		sc.held = append(sc.held, &held{s: h, epoch: sc.epoch, result: sc.hist[sc.epoch].result})
	case "release":
		sc.release(s.N)
	case "read":
		sc.read(s.N)
	case "drain":
		for _, w := range sc.watchers {
			if w != nil {
				sc.settle(w)
			}
		}
		sc.srv.Drain()
		for i, w := range sc.watchers {
			if w == nil {
				continue
			}
			sc.wait(w.done, "a watch stream outlived the drain")
			if !w.remote.Drained() {
				sc.fail("watcher %d ended without an end frame", i)
			}
			sc.verify(w)
			sc.watchers[i] = nil
		}
	default:
		sc.fail("unknown step %q", s.Do)
	}
}

// create builds the target's engine. On a durable target an injected fault
// may fail New, which leaves no log to recover.
func (sc *scenario) create() {
	var err error
	if sc.tg.shards > 0 {
		sc.eng, err = ivmeps.NewSharded(sc.q, ivmeps.ShardedOptions{Options: sc.opts(), Shards: sc.tg.shards})
	} else {
		sc.eng, err = ivmeps.New(sc.q, sc.opts())
	}
	if err != nil {
		if !sc.tripped() {
			sc.fail("New: %v", err)
		}
		if sc.open() == nil {
			sc.fail("Open recovered a log New failed to create")
		}
		sc.dead = true
	}
}

// build runs Build. When an injected fault fails its initial checkpoint,
// the engine must refuse every mutation and serve the built state, and the
// directory recovers to that state if the checkpoint reached it, else not
// at all.
func (sc *scenario) build() {
	err := sc.eng.Build()
	sc.advance(nil)
	if err == nil {
		sc.serve()
		sc.check()
		return
	}
	if !sc.tripped() {
		sc.fail("Build: %v", err)
	}
	sc.refused(func(err error) bool { return err != nil })
	sc.eng.Close()
	if sc.open() != nil {
		sc.dead = true
		return
	}
	sc.landed(nil)
}

func (sc *scenario) advance(ops []op) {
	for _, o := range ops {
		sc.m.add(o)
	}
	sc.epoch++
	sc.hist[sc.epoch] = epochRec{ops, sc.m.result()}
}

// rewind takes the model back to epoch e.
func (sc *scenario) rewind(e uint64) {
	for ; sc.epoch > e; sc.epoch-- {
		ops := sc.hist[sc.epoch].ops
		for i := len(ops) - 1; i >= 0; i-- {
			sc.m.add(op{ops[i].Rel, ops[i].Row, -ops[i].Mult})
		}
		delete(sc.hist, sc.epoch)
		delete(sc.views, sc.epoch)
	}
}

func (sc *scenario) commit(s step) {
	valid := sc.m.valid(s.Ops)
	err := sc.send(s)
	var me *ivmeps.MultiplicityError
	switch {
	case err == nil && valid:
		sc.advance(s.Ops)
		sc.check()
	case err != nil && !valid:
		if !errors.As(err, &me) {
			sc.fail("an over-delete was refused with %v, want a MultiplicityError", err)
		}
		sc.check()
	case err != nil && sc.tripped():
		// The fault wedged the log: a typed error, the state untouched, every
		// mutation refused, reads alive — then Open lands on either side.
		var lwe *ivmeps.LogWedgedError
		if !errors.As(err, &lwe) {
			sc.fail("commit failed without a LogWedgedError: %v", err)
		}
		sc.refused(func(err error) bool { return errors.As(err, &lwe) })
		sc.recover(s.Ops)
	default:
		sc.fail("commit returned %v; the model says it is valid: %v", err, valid)
	}
}

func (sc *scenario) send(s step) error {
	if sc.cl != nil {
		b := sc.cl.NewBatch()
		for _, o := range s.Ops {
			b.Apply(o.Rel, o.Row, o.Mult)
		}
		epoch, err := sc.cl.Commit(context.Background(), b)
		if err == nil && epoch != sc.epoch+1 {
			sc.fail("the remote commit published epoch %d, want %d", epoch, sc.epoch+1)
		}
		return err
	}
	switch s.Do {
	case "apply":
		return sc.eng.Apply(s.Ops[0].Rel, s.Ops[0].Row, s.Ops[0].Mult)
	}
	b := sc.eng.NewBatch()
	if s.Do == "applybatch" {
		// One Batch serves every such step, across reopens too: a batch
		// holds names and rows, not anything of the engine that made it.
		if sc.batch == nil {
			sc.batch = b
		}
		b = sc.batch
		b.Reset()
	}
	for _, o := range s.Ops {
		b.Apply(o.Rel, o.Row, o.Mult)
	}
	return sc.eng.Commit(b)
}

// refused checks that every mutation entry point fails with an error ok
// accepts, leaving the state as it was.
func (sc *scenario) refused(ok func(error) bool) {
	rel := sc.q.Relations()[0]
	row := make([]int64, len(sc.q.Schema(rel)))
	for i, err := range []error{sc.eng.Insert(rel, row), sc.eng.Commit(sc.eng.NewBatch().Insert(rel, row)),
		sc.eng.Checkpoint()} {
		if !ok(err) {
			sc.fail("mutation %d after the failure returned %v", i, err)
		}
	}
	sc.check()
}

// check holds the target to the model at the acknowledged epoch, and
// records the root views while a watcher is open.
func (sc *scenario) check() {
	s, err := sc.eng.Snapshot()
	if err != nil {
		sc.fail("Snapshot: %v", err)
	}
	defer s.Close()
	if s.Epoch() != sc.epoch || sc.eng.Epoch() != sc.epoch {
		sc.fail("snapshot epoch %d, Epoch() %d, want %d", s.Epoch(), sc.eng.Epoch(), sc.epoch)
	}
	got, err := bag(s.All())
	if err == nil {
		err = diff(got, sc.hist[sc.epoch].result)
	}
	if n := s.Count(); err == nil && n != len(got) {
		err = fmt.Errorf("Count() = %d over %d rows", n, len(got))
	}
	if err != nil {
		sc.fail("the result at epoch %d is not naive's: %v", sc.epoch, err)
	}
	if n, want := sc.eng.N(), sc.m.size(); n != want {
		sc.fail("N = %d, want %d", n, want)
	}
	if !sc.tg.remote { // a remote target's readers run concurrently with this
		if err := sc.eng.CheckInvariants(); err != nil {
			sc.fail("%v", err)
		}
	}
	if len(live(sc.watchers)) > 0 {
		views := map[string]state{}
		for _, v := range sc.eng.Views() {
			seq, err := s.ViewAll(v)
			if err == nil {
				views[v], err = bag(seq)
			}
			if err != nil {
				sc.fail("view %s: %v", v, err)
			}
		}
		sc.views[sc.epoch] = views
	}
}

// serve puts a remote target's engine behind a loopback server.
func (sc *scenario) serve() {
	if !sc.tg.remote {
		return
	}
	sc.srv = server.New(sc.eng, server.Options{})
	sc.hs = httptest.NewServer(sc.srv)
	var err error
	if sc.cl, err = client.New(sc.hs.URL, client.Options{PageLimit: 5}); err != nil {
		sc.fail("%v", err)
	}
}

// shut ends what is tied to the engine — watchers catch up and are checked,
// reads finish and are checked, the server stops — and closes it. Held
// snapshots outlive it.
func (sc *scenario) shut() error {
	for i, w := range sc.watchers {
		if w != nil {
			if w.done != nil {
				sc.settle(w)
			}
			sc.closeWatcher(i, false)
		}
	}
	if sc.hs != nil {
		sc.reads.Wait()
		for _, o := range sc.obs {
			ok := false
			for e := o.from; e <= sc.epoch && !ok && o.err == nil; e++ {
				ok = (o.epoch == 0 || o.epoch == e) && diff(o.st, sc.hist[e].result) == nil
			}
			if !ok {
				sc.fail("a remote read from epoch %d (reporting %d) matches no acknowledged result: %v", o.from, o.epoch, o.err)
			}
		}
		sc.count["read"] += len(sc.obs)
		sc.obs = nil
		sc.hs.Close()
		sc.hs, sc.srv, sc.cl = nil, nil, nil
	}
	for _, h := range sc.held {
		if h != nil {
			h.reopened = true
		}
	}
	return sc.eng.Close()
}

// open recovers the log directory. A fault armed for it may fail it, never
// as corruption, and the directory must then still recover.
func (sc *scenario) open() error {
	e, err := ivmeps.Open(sc.q, sc.opts())
	var cle *ivmeps.CorruptLogError
	if err != nil && !errors.As(err, &cle) && sc.tripped() {
		e, err = ivmeps.Open(sc.q, sc.opts())
	}
	sc.armed = false
	if errors.As(err, &cle) {
		sc.fail("Open reports corruption: %v", err)
	}
	if err == nil {
		sc.eng = e
	}
	return err
}

// recover reopens a wedged engine: Close returns nil, and Open lands on the
// last acknowledged epoch or, when the failed commit's record reached the
// disk, on that commit's.
func (sc *scenario) recover(ops []op) {
	sc.count["wedge"]++
	if err := sc.shut(); err != nil {
		sc.fail("Close of a wedged engine: %v", err)
	}
	if err := sc.open(); err != nil {
		sc.fail("Open after the fault: %v", err)
	}
	sc.landed(ops)
}

func (sc *scenario) landed(ops []op) {
	if ops != nil && sc.eng.Epoch() == sc.epoch+1 {
		sc.advance(ops)
	}
	sc.serve()
	sc.check()
}

// segments lists the log's segment files in order, with their sizes.
func (sc *scenario) segments() (paths []string, sizes []int) {
	list, _, _, err := wal.ScanDirFS(wal.OSFS, sc.dir)
	if err != nil {
		sc.fail("%v", err)
	}
	for _, s := range list {
		fi, err := os.Stat(s.Path)
		if err != nil {
			sc.fail("%v", err)
		}
		paths, sizes = append(paths, s.Path), append(sizes, int(fi.Size()))
	}
	return paths, sizes
}

// cut leaves the directory a crash leaves when it kills the process at
// byte n of the log: the segment holding it is truncated there, later ones
// removed.
func (sc *scenario) cut(n int) {
	paths, sizes := sc.segments()
	for i, path := range paths {
		if n < sizes[i] {
			err := os.Truncate(path, int64(n))
			for _, p := range paths[i+1:] {
				if err == nil {
					err = os.Remove(p)
				}
			}
			if err != nil {
				sc.fail("cut: %v", err)
			}
			return
		}
		n -= sizes[i]
	}
}

// expectEpoch reads from the log directory, without recovering it, the
// epoch recovery must land on: the last record of the longest intact log
// prefix, or the newest checkpoint's epoch when that is higher (a
// checkpoint is written only after its epoch is in the synced log, so it
// can outlive a cut tail).
func (sc *scenario) expectEpoch() uint64 {
	list, ckpts, _, err := wal.ScanDirFS(wal.OSFS, sc.dir)
	if err != nil {
		sc.fail("%v", err)
	}
	var epoch uint64
	for _, c := range ckpts {
		if ck, err := wal.LoadCheckpointFS(wal.OSFS, c.Path); err == nil && ck.Epoch > epoch {
			epoch = ck.Epoch
		}
	}
	for _, s := range list {
		sd, err := wal.ReadSegmentFS(wal.OSFS, s.Path)
		if err != nil {
			break // a torn header: nothing in this segment counts
		}
		if n := len(sd.Records); n > 0 && sd.Records[n-1].Epoch > epoch {
			epoch = sd.Records[n-1].Epoch
		}
		if sd.Tail != nil {
			break
		}
	}
	return epoch
}

// watch opens a watcher: a folding goroutine reads it while the script goes
// on, unless it is stalled.
func (sc *scenario) watch(s step) {
	w := &watcher{seen: map[uint64]map[string]state{}}
	if s.Arg != "" {
		w.filter = []string{s.Arg}
	}
	if s.Do == "stall" {
		w.buffer = s.N
	}
	if sc.watchers = append(sc.watchers, w); sc.views[sc.epoch] == nil {
		sc.check() // the views at the anchor
	}
	if sc.cl != nil {
		sc.rwatch(w, 0)
		return
	}
	buffer := w.buffer
	if buffer == 0 {
		buffer = 1 << 14
	}
	lw, err := sc.eng.Watch(ivmeps.WatchOptions{Views: w.filter, Buffer: buffer})
	if err != nil {
		sc.fail("Watch: %v", err)
	}
	w.local = lw
	a := lw.Snapshot()
	sc.anchor(w, a.Epoch(), a.ViewAll)
	a.Close()
	if s.Do == "watch" {
		w.start(lw.Events())
	}
}

// rwatch opens w's remote stream, resuming from a nonzero epoch: the
// server either continues the stream or sends a fresh anchor.
func (sc *scenario) rwatch(w *watcher, from uint64) {
	rw, err := sc.cl.Watch(context.Background(), client.WatchOptions{Views: w.filter, FromEpoch: from, Buffer: 1 << 14})
	if err != nil {
		sc.fail("remote Watch: %v", err)
	}
	w.remote = rw
	if rw.Resumed() && rw.Epoch() != from {
		sc.fail("resumed at epoch %d, asked for %d", rw.Epoch(), from)
	} else if !rw.Resumed() {
		sc.anchor(w, rw.Epoch(), func(v string) (iter.Seq2[[]int64, int64], error) {
			rows, mults, ok := rw.AnchorRows(v)
			if !ok {
				return nil, fmt.Errorf("the anchor lacks view %s", v)
			}
			return pairs(rows, mults), nil
		})
	}
	w.start(rw.Events())
}

// anchor sets w's fold to its stream's anchor state at epoch.
func (sc *scenario) anchor(w *watcher, epoch uint64, rows func(string) (iter.Seq2[[]int64, int64], error)) {
	views := w.filter
	if views == nil {
		views = sc.eng.Views()
	}
	w.st = map[string]state{}
	for _, v := range views {
		seq, err := rows(v)
		if err == nil {
			w.st[v], err = bag(seq)
		}
		if err != nil {
			sc.fail("watch anchor: %v", err)
		}
	}
	w.last = epoch
	w.seen[epoch] = clone(w.st)
}

// event folds one event, which must carry the next epoch, into w.
func (w *watcher) event(ev ivmeps.Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ev.Epoch != w.last+1 {
		return fmt.Errorf("epoch %d follows %d: the stream has a gap", ev.Epoch, w.last)
	}
	if err := fold(w.st, ev); err != nil {
		return err
	}
	w.last = ev.Epoch
	w.seen[ev.Epoch] = clone(w.st)
	return nil
}

func (w *watcher) start(events iter.Seq2[ivmeps.Event, error]) {
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		for ev, err := range events {
			if err == nil {
				err = w.event(ev)
			}
			if err != nil {
				w.mu.Lock()
				w.err = err
				w.mu.Unlock()
				return
			}
		}
	}()
}

func (w *watcher) close() {
	if w.local != nil {
		w.local.Close()
	} else {
		w.remote.Close()
	}
}

func (sc *scenario) wait(done chan struct{}, what string) {
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		sc.fail("%s", what)
	}
}

// settle waits until w has folded the last acknowledged epoch.
func (sc *scenario) settle(w *watcher) {
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		w.mu.Lock()
		last, err := w.last, w.err
		w.mu.Unlock()
		if last >= sc.epoch || err != nil {
			return
		}
		if time.Now().After(deadline) {
			sc.fail("a watcher stalled at epoch %d of %d", last, sc.epoch)
		}
	}
}

// verify holds every epoch w folded to the root views at that epoch.
func (sc *scenario) verify(w *watcher) {
	if w.err != nil {
		sc.fail("watcher: %v", w.err)
	}
	for e, st := range w.seen {
		want, ok := sc.views[e]
		if !ok || e > sc.epoch {
			sc.fail("a watcher folded epoch %d, which was never acknowledged", e)
		}
		for v, s := range st {
			if err := diff(s, want[v]); err != nil {
				sc.fail("a watcher's fold of view %s at epoch %d is not Snapshot.ViewRows: %v", v, e, err)
			}
		}
	}
	w.seen = map[uint64]map[string]state{}
}

func (sc *scenario) closeWatcher(i int, resume bool) {
	if i >= len(sc.watchers) || sc.watchers[i] == nil {
		sc.fail("watcher %d is not open", i)
	}
	w := sc.watchers[i]
	if w.done == nil {
		sc.unstall(w)
	} else {
		w.close()
		sc.wait(w.done, "Events did not end after Close")
		sc.verify(w)
		if resume {
			sc.rwatch(w, w.last)
			return
		}
	}
	sc.watchers[i] = nil
}

// unstall ends a stalled watcher. One that lagged — more commits were
// published since its anchor than its buffer holds — yields its buffer's
// worth of events gap-free, then exactly one WatcherLaggedError naming the
// rest, which ranging Events again repeats. Any other is read by a fold
// goroutine while Close runs: Close must cut its stream at a gap-free
// prefix.
func (sc *scenario) unstall(w *watcher) {
	published := sc.epoch - w.last
	if published <= uint64(w.buffer) {
		w.start(w.local.Events())
		w.close()
		sc.wait(w.done, "Events did not end after Close")
		sc.verify(w)
		return
	}
	var lag error
	for ev, err := range w.local.Events() {
		if lag = err; err != nil {
			break
		}
		if err := w.event(ev); err != nil {
			sc.fail("stalled watcher: %v", err)
		}
		if uint64(len(w.seen)) > published {
			break // every commit was delivered: no eviction
		}
	}
	var wle *ivmeps.WatcherLaggedError
	if !errors.As(lag, &wle) || !errors.Is(lag, ivmeps.ErrWatcherLagged) || wle.From != w.last+1 || wle.To != sc.epoch ||
		len(w.seen) != w.buffer+1 {
		sc.fail("a stalled watcher with buffer %d delivered %d events to epoch %d, then %v; want the gap %d..%d",
			w.buffer, len(w.seen)-1, w.last, lag, w.last+1, sc.epoch)
	}
	var again []error
	for _, err := range w.local.Events() {
		again = append(again, err)
	}
	if len(again) != 1 || fmt.Sprint(again[0]) != lag.Error() {
		sc.fail("ranging Events after the eviction yielded %v, want the same gap once", again)
	}
	sc.count["lag"]++
	sc.verify(w)
	w.local.Close()
}

func (sc *scenario) release(i int) {
	if i >= len(sc.held) || sc.held[i] == nil {
		sc.fail("snapshot %d is not held", i)
	}
	h := sc.held[i]
	got, err := bag(h.s.All())
	if err == nil {
		err = diff(got, h.result)
	}
	if err != nil || h.s.Epoch() != h.epoch {
		sc.fail("the snapshot held at epoch %d reads epoch %d: %v", h.epoch, h.s.Epoch(), err)
	}
	if h.reopened {
		sc.count["held across reopen"]++
	} else if sc.epoch > h.epoch {
		sc.count["held across commits"]++
	}
	h.s.Close()
	sc.held[i] = nil
}

// read starts one remote read; shut checks it against the result at the
// epoch it reports, or for All, which reports none, at some epoch since it
// started.
func (sc *scenario) read(all int) {
	o, cl, ctx := &read{from: sc.epoch}, sc.cl, context.Background()
	sc.obs = append(sc.obs, o)
	sc.reads.Add(1)
	go func() {
		defer sc.reads.Done()
		if all == 0 {
			var rows [][]int64
			var mults []int64
			if rows, mults, o.epoch, o.err = cl.Rows(ctx, ""); o.err == nil {
				o.st, o.err = bag(pairs(rows, mults))
			}
			return
		}
		seq, errf := cl.All(ctx, "")
		o.st, o.err = bag(seq)
		if err := errf(); err != nil {
			o.err = err
		}
	}()
}

// end settles the scenario: watchers catch up and are checked, held
// snapshots and reads are checked, and the engine is closed.
func (sc *scenario) end() {
	for i, h := range sc.held {
		if h != nil {
			sc.release(i)
		}
	}
	if sc.eng != nil {
		if err := sc.shut(); err != nil && !sc.tripped() {
			sc.fail("Close: %v", err)
		}
	}
}

// teardown releases whatever a failed scenario still holds.
func (sc *scenario) teardown() {
	for _, w := range sc.watchers {
		if w != nil {
			w.close()
		}
	}
	for _, h := range sc.held {
		if h != nil {
			h.s.Close()
		}
	}
	sc.reads.Wait()
	if sc.hs != nil {
		sc.hs.Close()
	}
	if sc.eng != nil {
		sc.eng.Close()
	}
}

// built returns tg's engine with rows drawn rows per relation loaded and
// built, for a test that drives it itself.
func built(t *testing.T, tg target, seed int64, rows int, domain int64) *ivmeps.Engine {
	sc := newScenario(t, tg, seed)
	sc.load(gen{load: rows, domain: domain})
	return sc.eng
}

// TestWatchDeltaEqualsSnapshotDiff is the watch headline: folding
// watchers — full and filtered, joining and leaving mid-traffic, stalled
// ones evicted with the exact gap — reproduce the engine's root views at
// every epoch, across multi-relation batch commits that force major
// rebalances, over three random histories per query.
func TestWatchDeltaEqualsSnapshotDiff(t *testing.T) {
	for _, seed := range []int64{1, 2, 8} {
		for _, tc := range []struct{ name, query string }{{"twopath", twoPath}, {"multitree", multiTree}} {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				sc := newScenario(t, target{query: tc.query, eps: 0.5}, seed)
				g := gen{mix: map[string]int{"batch": 12, "watch": 1, "close": 1, "stall": 1}, load: 8, ops: 60, domain: 8}
				sc.load(g)
				sc.run(step{Do: "watch"}, step{Do: "watch"}, step{Do: "watch", Arg: sc.eng.Views()[0]})
				sc.gen(g, 48)
				sc.end()
				if sc.eng.Stats().MajorRebalances == 0 {
					t.Fatal("the traffic never crossed a major rebalance")
				}
			})
		}
	}
}

// TestWatchFoldSingleUpdates drives single-tuple updates at ε = 0 and 0.5
// through enough volume to cross major-rebalance thresholds, growing and
// then shrinking, with one watcher folding every epoch.
func TestWatchFoldSingleUpdates(t *testing.T) {
	for _, eps := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("eps=%v", eps), func(t *testing.T) {
			sc := newScenario(t, target{query: twoPath, eps: eps}, 0)
			script := []step{{Do: "build"}, {Do: "watch"}}
			for i := int64(0); i < 60; i++ {
				script = append(script, step{Do: "apply", Ops: []op{{"R", []int64{i % 7, i % 5}, 1 + i%2}}},
					step{Do: "apply", Ops: []op{{"S", []int64{i % 5, i % 11}, 1}}})
			}
			for i := int64(59); i >= 0; i-- {
				script = append(script, step{Do: "apply", Ops: []op{{"S", []int64{i % 5, i % 11}, -1}}})
			}
			sc.run(script...)
			sc.end()
			if sc.eng.Stats().MajorRebalances == 0 {
				t.Fatal("the updates never crossed a major rebalance")
			}
		})
	}
}

// TestWatchSlowConsumerEviction pins the eviction contract: a Buffer-3
// watcher that is not read during 9 commits gets its 3 buffered events
// gap-free, then exactly one WatcherLaggedError naming epochs anchor+4 to
// anchor+9, and the same gap again when ranged again — while a healthy
// watcher opened after it folds all 9 commits exactly.
func TestWatchSlowConsumerEviction(t *testing.T) {
	sc := newScenario(t, target{query: twoPath, eps: 0.5}, 1)
	sc.load(gen{load: 24, domain: 8})
	sc.run(step{Do: "stall", N: 3}, step{Do: "watch"})
	for i := int64(0); i < 9; i++ {
		sc.run(step{Do: "apply", Ops: []op{{"R", []int64{500 + i, i % 4}, 1}}})
	}
	sc.end()
	if sc.count["lag"] != 1 {
		t.Fatalf("%d evictions, want 1", sc.count["lag"])
	}
}

// TestScenarioEngine drives every commit entry point, held snapshots and
// watchers on engines from New. The Union query at ε = 0.2 is the one
// whose resumed root iterator must re-bind its own view tuple, or a sibling
// Union operand corrupts the rows.
func TestScenarioEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		tg   target
	}{{"star", target{query: star, eps: 0.5}}, {"multitree", target{query: multiTree}},
		{"union", target{query: "Q(A, C, E) = R(A, B, D), S(A, B, C), T(A, E)", eps: 0.2}}} {
		for _, seed := range []int64{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/eps=%v/seed=%d", tc.name, tc.tg.eps, seed), func(t *testing.T) {
				sc := newScenario(t, tc.tg, seed)
				g := gen{mix: map[string]int{"apply": 3, "applybatch": 2, "batch": 2, "hold": 1, "release": 1,
					"watch": 1, "stall": 1, "close": 1}, load: 60, ops: 12, domain: 5}
				sc.load(g)
				sc.gen(g, 40)
				sc.end()
			})
		}
	}
}

// TestScenarioShardedHeldSnapshots holds snapshots of a two-shard engine
// across later commits: each still reads naive's result at its own epoch.
func TestScenarioShardedHeldSnapshots(t *testing.T) {
	for _, seed := range []int64{1, 2, 8} {
		sc := newScenario(t, target{query: star, eps: 0.5, shards: 2}, seed)
		g := gen{mix: map[string]int{"batch": 2, "apply": 2, "applybatch": 1, "hold": 2, "release": 2}, load: 40, ops: 16, domain: 9}
		sc.load(g)
		sc.gen(g, 40)
		sc.end()
		if sc.count["held across commits"] == 0 {
			t.Fatalf("seed %d: no snapshot was held across a commit", seed)
		}
	}
}

// TestScenarioShardedCrossings grows a two-shard two-path engine in 500-op
// batches past two doublings of each shard's M and shrinks it back past a
// halving of each, holding snapshots across them: a shard's crossing commit writes
// only its base relations ahead of its refill, and a light key a batch drives
// heavy leaves the light part with the rows it held, while the result stays
// naive's, with every shard's invariants, after every commit and in every
// held snapshot.
func TestScenarioShardedCrossings(t *testing.T) {
	sc := newScenario(t, target{query: twoPath, eps: 0.5, shards: 2}, 1)
	sc.load(gen{load: 200, domain: 100})
	rng := rand.New(rand.NewSource(1))
	var grown []op
	batch := func(ops []op) {
		sc.run(step{Do: "batch", Ops: ops})
		if len(sc.script)%3 == 0 {
			sc.run(step{Do: "hold"})
		}
	}
	for i := int64(0); i < 5; i++ {
		var ops []op
		for j := int64(0); j < 250; j++ {
			v := 1000 + 250*i + j
			ops = append(ops, op{"R", []int64{v, rng.Int63n(100)}, 1}, op{"S", []int64{rng.Int63n(100), v}, 1})
		}
		grown = append(grown, ops...)
		batch(ops)
	}
	majors := sc.eng.Stats().MajorRebalances
	for len(grown) > 0 {
		ops := make([]op, 0, 500)
		for _, o := range grown[len(grown)-500:] {
			ops = append(ops, op{o.Rel, o.Row, -1})
		}
		grown = grown[:len(grown)-500]
		batch(ops)
	}
	for i := range sc.held {
		sc.run(step{Do: "release", N: i})
	}
	sc.end()
	if st := sc.eng.Stats(); majors < 4 || st.MajorRebalances-majors < 2 {
		t.Fatalf("%d major rebalances growing and %d shrinking, want the shards' doublings and halvings", majors, st.MajorRebalances-majors)
	}
}

// TestScenarioWatchThroughWedge runs watchers on a durable engine while
// faults wedge its log: the failed commit publishes no event, every fold
// ends at the last acknowledged epoch, and Open recovers that state or the
// failed commit's.
func TestScenarioWatchThroughWedge(t *testing.T) {
	for _, seed := range []int64{1, 2, 8} {
		sc := newScenario(t, target{query: twoPath, eps: 0.5, seg: 512}, seed)
		g := gen{mix: map[string]int{"batch": 4, "apply": 2, "checkpoint": 1, "fault": 1, "watch": 1, "stall": 1, "close": 1},
			load: 8, ops: 6, domain: 8}
		sc.load(g)
		sc.run(step{Do: "watch"}, step{Do: "stall", N: 2})
		sc.gen(g, 60)
		sc.end()
		if sc.count["wedge"] == 0 {
			t.Fatalf("seed %d: no fault wedged the log", seed)
		}
	}
}

// TestScenarioSnapshotAcrossCut holds snapshots across crashes: after a cut
// and Open, an old snapshot still reads its epoch's result and the
// recovered engine reads its own.
func TestScenarioSnapshotAcrossCut(t *testing.T) {
	for _, seed := range []int64{1, 2, 8} {
		sc := newScenario(t, target{query: twoPath, eps: 0.5, seg: 512}, seed)
		g := gen{mix: map[string]int{"batch": 4, "checkpoint": 1, "cut": 1, "hold": 2, "release": 1}, load: 4, ops: 4, domain: 8}
		sc.load(g)
		sc.gen(g, 60)
		sc.end()
		if sc.count["held across reopen"] == 0 {
			t.Fatalf("seed %d: no snapshot was held across a cut", seed)
		}
	}
}

// TestScenarioRemoteDrain watches and reads a durable engine remotely, then
// drains the server: every stream ends with an end frame at the last
// acknowledged epoch, and Open recovers that epoch.
func TestScenarioRemoteDrain(t *testing.T) {
	for _, seed := range []int64{1, 2, 8} {
		sc := newScenario(t, target{query: twoPath, eps: 0.5, seg: 512, remote: true}, seed)
		g := gen{mix: map[string]int{"batch": 4, "read": 2, "checkpoint": 1, "watch": 1, "close": 1}, load: 4, ops: 8, domain: 8}
		sc.load(g)
		sc.run(step{Do: "watch"}, step{Do: "watch", Arg: sc.eng.Views()[0]})
		sc.gen(g, 30)
		sc.run(step{Do: "read"}, step{Do: "drain"}, step{Do: "reopen"}, step{Do: "batch", Ops: []op{{"R", []int64{1, 1}, 1}}})
		sc.end()
	}
}
