package ivmeps

import (
	"errors"
	"fmt"

	"ivmeps/internal/core"
	"ivmeps/internal/tuple"
	"ivmeps/internal/wal"
)

// SyncMode selects how eagerly a durable engine forces committed batches to
// stable storage; see Durability and the guarantee table in
// docs/DURABILITY.md.
type SyncMode int

// The fsync policies, from fastest to most durable.
const (
	// SyncOff buffers log appends in user space: maximum throughput, and a
	// process kill may lose the most recent commits. Recovery still restores
	// a clean committed prefix — never a torn or partial state.
	SyncOff SyncMode = iota
	// SyncBatched writes every record to the OS at commit time (a process
	// kill loses at most the commit in flight) and fsyncs in groups, so an
	// OS crash or power loss is bounded to the last sync window.
	SyncBatched
	// SyncAlways fsyncs every commit before it is applied: committed means
	// on stable storage, at one fsync of latency per commit.
	SyncAlways
)

// Durability configures the optional write-ahead log of an Engine. The zero
// value (an empty Dir) disables durability: the engine is purely in-memory
// and the commit paths carry no logging cost at all.
type Durability struct {
	// Dir is the log directory. New requires it to hold no existing log
	// (pass a fresh or empty directory); Open recovers an existing one.
	// One engine process per directory at a time.
	Dir string
	// Sync is the fsync policy; the zero value is SyncOff.
	Sync SyncMode
	// SegmentBytes sets the log segment rotation threshold; 0 means the
	// 64 MiB default. Checkpoints retire whole segments, so smaller
	// segments reclaim space sooner at the cost of more files.
	SegmentBytes int64

	// fs is the file-operation implementation behind the log; nil means
	// direct os calls. It is settable only from this package's tests
	// (fault injection via internal/wal/faultfs) — real deployments always
	// run on the real filesystem.
	fs wal.VFS
}

// enabled reports whether the options ask for a write-ahead log.
func (d Durability) enabled() bool { return d.Dir != "" }

// vfs returns the configured file-operation implementation, defaulting to
// direct os calls.
func (d Durability) vfs() wal.VFS {
	if d.fs != nil {
		return d.fs
	}
	return wal.OSFS
}

// walOptions translates the public knobs for internal/wal.
func (d Durability) walOptions() wal.Options {
	return wal.Options{Dir: d.Dir, Sync: wal.SyncMode(d.Sync), SegmentBytes: d.SegmentBytes, FS: d.fs}
}

// walHook is the engine's core.CommitHook: it re-frames the validated op
// stream (RelIDs are already resolved by validation) into the log's op type
// and appends it. The op buffer is pooled and the rows are referenced, not
// copied, for the duration of the append, so the durable commit path adds
// no steady-state allocation beyond the log's own buffered writes.
func (e *Engine) walHook(epoch uint64, ops []core.BatchOp) error {
	w := e.walOps[:0]
	for i := range ops {
		w = append(w, wal.Op{RelID: ops[i].RelID, Mult: ops[i].Mult, Row: []int64(ops[i].Row)})
	}
	err := e.wal.Append(epoch, w)
	clear(w) // drop the references into the caller's rows
	e.walOps = w[:0]
	return err
}

// Checkpoint serializes the current committed state (base relations +
// epoch) into the log directory and retires log segments the checkpoint
// covers. The state capture is O(#relations) under the writer lock —
// exactly a Snapshot capture — and the serialization streams from the
// frozen relations outside the lock, so commits proceed while the
// checkpoint writes; the checkpoint file becomes visible atomically.
// Recovery cost after a checkpoint is proportional to the log tail, not to
// history. Checkpoint returns an error on an engine without durability
// configured (a sharded engine never has it), and refuses with the
// LogWedgedError on an engine whose log has wedged, or with Build's error
// on one whose initial checkpoint failed — a checkpoint claims its epoch is
// durably reconstructible, which neither log can promise.
func (e *Engine) Checkpoint() error {
	if !e.built {
		return fmt.Errorf("ivmeps: Checkpoint: %w (call Build first)", ErrNotBuilt)
	}
	if e.wal == nil {
		return fmt.Errorf("ivmeps: Checkpoint on an engine without durability (set Options.Durability.Dir)")
	}
	if err := e.e.Degraded(); err != nil {
		return wrapErr(err)
	}
	epoch, rels, err := e.e.BaseState()
	if err != nil {
		return wrapErr(err)
	}
	crels := make([]wal.CheckpointRel, len(rels))
	for i := range rels {
		fb := rels[i]
		crels[i] = wal.CheckpointRel{
			Name:  fb.Name,
			Arity: len(fb.Rel.Schema()),
			Rows: func(yield func(row []int64, mult int64)) {
				fb.Rel.ForEach(func(t tuple.Tuple, m int64) { yield(t, m) })
			},
		}
	}
	d := e.opts.Durability
	err = wal.WriteCheckpointFS(d.vfs(), d.Dir, epoch, e.q.String(), crels, d.Sync == SyncAlways)
	for i := range rels {
		rels[i].Rel.Release()
	}
	if err != nil {
		return wrapErr(err)
	}
	return wrapErr(e.wal.Checkpointed(epoch))
}

// Open recovers a durable engine from an existing log directory
// (opts.Durability.Dir): it loads the newest valid checkpoint, rebuilds the
// engine from it, replays the log tail through the normal commit path —
// truncating a torn final record left by a crash — and returns the engine
// ready for commits, logging again into the same directory. The recovered
// state is exactly the committed state at the last intact log record: the
// enumerated result, N, and the snapshot epoch all match, at any Epsilon
// setting.
//
// q must be the same query the directory was created under (checkpoints
// record it; a mismatch is an error). Damaged log data yields a
// CorruptLogError; a directory without a loadable checkpoint (in
// particular, one New never initialized) is an error too.
func Open(q *Query, opts Options) (*Engine, error) {
	if !opts.Durability.enabled() {
		return nil, fmt.Errorf("ivmeps: Open requires Options.Durability.Dir")
	}
	rec, err := wal.BeginRecoveryFS(opts.Durability.vfs(), opts.Durability.Dir)
	if err != nil {
		if errors.Is(err, wal.ErrNoCheckpoint) {
			return nil, fmt.Errorf("ivmeps: Open %s: %w (create the log with New first)", opts.Durability.Dir, err)
		}
		return nil, wrapErr(err)
	}
	if got, want := rec.Checkpoint.Query, q.q.String(); got != want {
		return nil, fmt.Errorf("ivmeps: Open %s: log belongs to query %q, not %q", opts.Durability.Dir, got, want)
	}

	// Rebuild the engine from the checkpointed base relations. Views, light
	// parts, and indicators are re-derived by the normal preprocessing path;
	// the implementation-defined latitude this allows (threshold base M,
	// light-part contents) is the same a different update order has — the
	// enumerated result and N are exact.
	mem := opts
	mem.Durability = Durability{}
	e, err := New(q, mem)
	if err != nil {
		return nil, err
	}
	for _, r := range rec.Checkpoint.Rels {
		for i := range r.Rows {
			if err := e.LoadWeighted(r.Name, r.Rows[i], r.Mults[i]); err != nil {
				return nil, &CorruptLogError{Path: opts.Durability.Dir, Reason: fmt.Sprintf("checkpoint rejected by engine: %v", err)}
			}
		}
	}
	if err := e.Build(); err != nil {
		return nil, err
	}

	// Replay the tail through the normal commit path. No hook is attached
	// yet, so replayed commits are not re-logged; the log already has them.
	names := q.q.RelationNames()
	replay := func(r wal.Record) error {
		ops := make([]core.BatchOp, len(r.Ops))
		for i, op := range r.Ops {
			if op.RelID < 1 || op.RelID > len(names) {
				return &CorruptLogError{Path: opts.Durability.Dir, Reason: fmt.Sprintf("record at epoch %d: relation id %d out of range", r.Epoch, op.RelID)}
			}
			ops[i] = core.BatchOp{Rel: names[op.RelID-1], RelID: op.RelID, Row: tuple.Tuple(op.Row), Mult: op.Mult}
		}
		if err := e.e.CommitBatch(ops); err != nil {
			// The log only ever holds validated commits; a record the engine
			// rejects cannot be one the engine wrote.
			return &CorruptLogError{Path: opts.Durability.Dir, Reason: fmt.Sprintf("record at epoch %d rejected on replay: %v", r.Epoch, err)}
		}
		return nil
	}
	if err := rec.Replay(true, replay); err != nil {
		return nil, wrapErr(err)
	}
	// Seat the epoch at the last intact record's (the checkpoint's, with an
	// empty tail) rather than trusting one increment per replayed record: a
	// log from before zero-mult-only commits stopped publishing epochs may
	// hold records that replay as no-ops.
	e.e.RestoreEpoch(rec.LastEpoch)

	l, err := rec.Continue(opts.Durability.walOptions())
	if err != nil {
		return nil, wrapErr(err)
	}
	e.opts.Durability = opts.Durability
	e.wal = l
	e.e.SetCommitHook(e.walHook)
	return e, nil
}
