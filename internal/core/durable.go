package core

import (
	"fmt"

	"ivmeps/internal/relation"
)

// Durability hooks. The engine itself stores nothing on disk; instead the
// commit envelope exposes exactly the two primitives a write-ahead log needs:
//
//   - a commit hook observing every validated op stream before it is
//     applied (SetCommitHook) — because validation is complete and apply is
//     infallible at that point, "logged" and "committed" coincide: a crash
//     after the hook returns replays the batch, a crash before it leaves a
//     log without the record and an engine without the batch;
//   - a checkpoint capture (BaseState) freezing the base relations and the
//     epoch under one writer-lock hold, so a checkpoint serializes one
//     committed state without stalling subsequent commits — everything else
//     the engine holds is re-derived from the base relations by Preprocess
//     at recovery time (with the usual implementation-defined latitude in M
//     and the light parts; the enumerated result, N, and the epoch are
//     exact).
//
// Recovery runs Preprocess over the checkpointed base relations, replays
// the log tail through the normal CommitBatch path with no hook attached
// (replayed commits are already in the log), and seats the epoch with
// RestoreEpoch.

// CommitHook observes one validated commit before it is applied: epoch is
// the epoch the commit will publish and ops is its validated op stream,
// with every op's RelID resolved. Commits that publish nothing — no
// nonzero-mult op — are not observed. The hook runs under the writer lock; the
// ops and their rows are valid only for the duration of the call. A hook
// error fails the commit with the engine completely unchanged — exactly
// like a validation error.
//
// The two-phase federation path (PrepareCommit/ApplyPrepared) does not
// invoke the hook: a federation coordinator owns the cross-shard commit
// protocol and with it the durability story.
type CommitHook func(epoch uint64, ops []BatchOp) error

// SetCommitHook installs (or, with nil, removes) the engine's commit hook.
// It does not clear the degraded latch: removing the hook (Engine.Close
// does) must not let mutations resume unlogged on an engine whose log
// wedged — the latch lasts for the engine's lifetime, and recovery builds a
// fresh engine.
func (e *Engine) SetCommitHook(h CommitHook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.commitHook = h
}

// runCommitHookLocked invokes the commit hook for the commit that would
// publish epoch and latches the degraded state on failure. The hook is the
// durability layer's append, and every failure there wedges the log (wal:
// nothing may be written after an uncertain flush), so the engine mirrors
// the wedge: the first hook error is remembered and every later mutation —
// CommitBatch, Update, PrepareCommit — is refused with it
// before validation even runs, while snapshots and enumeration keep
// serving the last committed state. The latch clears only via
// SetCommitHook, i.e. by reopening through recovery.
func (e *Engine) runCommitHookLocked(epoch uint64, ops []BatchOp) error {
	err := e.commitHook(epoch, ops)
	if err != nil && e.degraded == nil {
		e.degraded = err
	}
	return err
}

// Degrade latches the engine read-only with err, as a failing hook does,
// unless it already is: the durability layer calls it when its log cannot
// take commits it would otherwise have to acknowledge unlogged.
func (e *Engine) Degrade(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.degraded == nil {
		e.degraded = err
	}
}

// Degraded returns the hook error that latched the engine read-only, or
// nil while the engine still accepts mutations.
func (e *Engine) Degraded() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.degraded
}

// FrozenBase is one base relation captured by BaseState: the original
// relation name and a frozen read-only handle (first occurrence; all
// occurrences hold identical content).
type FrozenBase struct {
	Name string
	Rel  *relation.Relation
}

// BaseState captures the engine's committed epoch and a frozen handle for
// every original base relation, in first-occurrence order, under one
// writer-lock hold — the capture is O(#relations) and copies no tuples.
// The caller must Release every returned handle; until then a writer
// mutating a captured relation detaches its storage copy-on-first-write,
// exactly as for snapshots.
func (e *Engine) BaseState() (uint64, []FrozenBase, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.preprocessed {
		return 0, nil, fmt.Errorf("core: BaseState: %w (run Preprocess first)", ErrNotBuilt)
	}
	rels := make([]FrozenBase, 0, len(e.relTab))
	for i := range e.relTab {
		re := &e.relTab[i]
		rels = append(rels, FrozenBase{Name: re.name, Rel: re.occs[0].base.Freeze()})
	}
	return e.epoch, rels, nil
}

// RestoreEpoch seats the epoch counter at a recovered value. It is meant
// for the recovery path only, after Preprocess (which left the epoch at 1)
// and the replay of the log tail, before a hook or a sink is attached.
func (e *Engine) RestoreEpoch(epoch uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epoch = epoch
}
