package core

import (
	"runtime"
	"sync"

	"ivmeps/internal/tuple"
)

// Parallel batch propagation. ApplyBatch reduces a batch to one aggregated
// delta per view-tree leaf. A view shared by several trees is written through
// one of them only, and any other tree that probes it for a support change is
// in that tree's job group (Engine.treeGroup); the per-group propagations of
// one phase are independent (they write only views of their own trees and
// read, besides, views and leaf relations — base relations, light parts, ∃H —
// that no phase member mutates), so they can run on a bounded worker pool.
//
// All mutable scratch of the propagation hot path lives in a workerState:
// the ubind binding slots of the update plans and the delta pool. Probes of
// the shared relations (relation.Mult, Index.FirstMatch/Count) are
// read-only — they hash the unencoded key tuple against the relation's
// open-addressing table without touching any shared buffer — so any number
// of workers may probe the same relation while a phase mutates nothing.
// Every worker — including the engine's own goroutine, which owns ws0 and
// participates in every phase — propagates its assigned trees without
// heap allocation in steady state and without touching another worker's
// scratch. Per-plan scratch (keyScratch, outScratch) needs no duplication:
// a plan belongs to one tree edge, and a tree is drained by one worker.
//
// Work is distributed as job groups: enqueue collects (leafPath, delta)
// jobs under the group of the leaf's tree, and runJobs drains whole
// groups. Assignment is static and deterministic: worker w of a
// phase with W participants drains groups w, w+W, w+2W, … in enqueue
// order. Determinism matters beyond reproducibility — per-worker scratch
// (delta pools, aggregation maps) grows to fit the trees a worker drains,
// so a deterministic assignment lets a warmed engine run parallel batches
// allocation-free, where work-stealing would re-shuffle trees across
// workers and occasionally grow a pool mid-measurement (the stray
// pool-sizing allocs the bench gate used to tolerate). Jobs within a group
// run in enqueue order on a single worker, which preserves the sequential
// batch semantics tree by tree — and the order a shared view needs: written
// through its writer's edge before another ∃-child's edge probes it;
// groups may interleave freely because a phase's groups are independent.
//
// The pool's goroutines are persistent (spawning per batch would allocate
// on the hot path): each helper blocks on its own task channel — the
// channel identity, not a shared queue, is what binds helper i to stride
// offset i — and each phase sends one reused *poolTask per helper. The
// pool deliberately holds no reference to the Engine, so an abandoned
// engine remains collectible; a runtime cleanup closes the pool if Close
// was never called.

// workerState is one worker's mutable scratch for delta propagation.
type workerState struct {
	ubind     []tuple.Value // binding slots for update plans
	deltaPool []*delta

	// cap points at the engine's commit-delta capture slots while a sink
	// is subscribed, nil otherwise (watch.go). Set under the writer lock;
	// helpers observe changes through the pool's channel handoff.
	cap *captureSet

	// deltasApplied counts view maintenance writes; merged into
	// Stats.DeltasApplied when the worker quiesces.
	deltasApplied int64
}

func newWorkerState(vars int) *workerState {
	return &workerState{ubind: make([]tuple.Value, vars)}
}

// getDelta and putDelta pool deltas (and their row/tuple buffers) across
// propagations, per worker.
func (ws *workerState) getDelta() *delta {
	if n := len(ws.deltaPool); n > 0 {
		d := ws.deltaPool[n-1]
		ws.deltaPool = ws.deltaPool[:n-1]
		return d
	}
	return &delta{}
}

func (ws *workerState) putDelta(d *delta) {
	d.reset()
	ws.deltaPool = append(ws.deltaPool, d)
}

// propJob is one queued propagation: push delta d from leaf lp to its root.
type propJob struct {
	lp *leafPath
	d  *delta
}

// poolTask describes one parallel phase. Worker id drains groups
// id, id+width, id+2·width, …; wg counts the helper goroutines still
// draining.
type poolTask struct {
	jobs   [][]propJob // the engine's jobGroups
	groups []int       // indexes of the non-empty groups of this phase
	width  int         // participating workers (helpers + the engine goroutine)
	wg     sync.WaitGroup
}

// drain propagates the job groups statically assigned to worker id.
func (ws *workerState) drain(t *poolTask, id int) {
	for i := id; i < len(t.groups); i += t.width {
		for j := range t.jobs[t.groups[i]] {
			jb := &t.jobs[t.groups[i]][j]
			ws.propagatePath(jb.lp, jb.d)
		}
	}
}

// workerPool holds the persistent helper goroutines. It must not reference
// the Engine (the runtime cleanup that closes it would otherwise never
// fire).
type workerPool struct {
	states []*workerState
	tasks  []chan *poolTask // one channel per helper: helper i is stride offset i
	task   poolTask         // reused phase descriptor
}

// newWorkerPool starts helpers persistent goroutines.
func newWorkerPool(helpers, vars int) *workerPool {
	p := &workerPool{}
	for i := 0; i < helpers; i++ {
		ws := newWorkerState(vars)
		ch := make(chan *poolTask, 1)
		p.states = append(p.states, ws)
		p.tasks = append(p.tasks, ch)
		go func(id int) {
			for t := range ch {
				ws.drain(t, id)
				t.wg.Done()
			}
		}(i)
	}
	return p
}

func (p *workerPool) close() {
	for _, ch := range p.tasks {
		close(ch)
	}
}

// enqueue queues one propagation job on the group of the leaf's tree.
func (e *Engine) enqueue(lp *leafPath, d *delta) {
	g := e.treeGroup[lp.tree]
	if len(e.jobGroups[g]) == 0 {
		e.activeGroups = append(e.activeGroups, g)
	}
	e.jobGroups[g] = append(e.jobGroups[g], propJob{lp: lp, d: d})
}

// parallelMinRows is the minimum queued delta-row volume (summed over the
// phase's jobs) before runJobs pays for the pool handoff; smaller phases —
// e.g. the light routing of a partition that received a handful of rows —
// run faster inline. Tests zero it to force every phase onto the pool.
var parallelMinRows = 64

// runJobs drains all queued job groups, in parallel when the engine has
// workers, the phase spans more than one group, and the queued work is
// large enough to amortize the pool handoff. Within a group, jobs run in
// enqueue order; the deltas referenced by the jobs are read-only for the
// duration of the phase.
func (e *Engine) runJobs() {
	groups := e.activeGroups
	if len(groups) == 0 {
		return
	}
	if e.nWorkers > 1 && len(groups) > 1 && e.queuedRows(groups) >= parallelMinRows {
		e.runJobsParallel(groups)
	} else {
		for _, g := range groups {
			for j := range e.jobGroups[g] {
				jb := &e.jobGroups[g][j]
				e.ws0.propagatePath(jb.lp, jb.d)
			}
		}
	}
	for _, g := range groups {
		e.jobGroups[g] = e.jobGroups[g][:0]
	}
	e.activeGroups = e.activeGroups[:0]
}

// queuedRows estimates a phase's work as the total input delta rows across
// its queued jobs.
func (e *Engine) queuedRows(groups []int) int {
	rows := 0
	for _, g := range groups {
		for j := range e.jobGroups[g] {
			rows += len(e.jobGroups[g][j].d.rows)
		}
	}
	return rows
}

func (e *Engine) runJobsParallel(groups []int) {
	if e.pool == nil {
		// Lazy start, so engines that never batch in parallel spawn nothing.
		e.pool = newWorkerPool(e.nWorkers-1, len(e.vars))
		e.cleanup = runtime.AddCleanup(e, func(p *workerPool) { p.close() }, e.pool)
		// A sink subscribed before the pool existed: the fresh states need
		// the capture reference ws0 already carries.
		for _, ws := range e.pool.states {
			ws.cap = e.ws0.cap
		}
	}
	t := &e.pool.task
	t.jobs = e.jobGroups
	t.groups = groups
	helpers := len(e.pool.states)
	if helpers > len(groups)-1 {
		helpers = len(groups) - 1
	}
	t.width = helpers + 1
	t.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		e.pool.tasks[i] <- t
	}
	// The engine goroutine participates as the last stride offset.
	e.ws0.drain(t, helpers)
	t.wg.Wait()
	t.jobs, t.groups = nil, nil
	// All helpers are quiescent after Wait; fold their counters into the
	// engine's stats.
	for _, ws := range e.pool.states {
		e.stats.DeltasApplied += ws.deltasApplied
		ws.deltasApplied = 0
	}
}

// Close releases the engine's worker goroutines, if any were started. It is
// idempotent and safe on any engine, even one that never batched; using the
// engine for further parallel batches after Close restarts the pool. A
// runtime cleanup closes the pool of engines that are garbage-collected
// without Close.
func (e *Engine) Close() {
	if e.pool != nil {
		e.cleanup.Stop()
		e.pool.close()
		e.pool = nil
	}
}

// resolveWorkers turns Options.Workers into the worker count used by
// ApplyBatch: 0 means GOMAXPROCS-bounded auto, 1 (or negative) sequential,
// and any explicit count is honored even beyond GOMAXPROCS (useful under
// the race detector). The count is additionally capped by the number of
// view trees, which bounds the job groups, the unit of parallelism.
func (e *Engine) resolveWorkers(trees int) int {
	w := e.opts.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > trees {
		w = trees
	}
	if w < 1 {
		w = 1
	}
	return w
}
