package core

import (
	"fmt"

	"ivmeps/internal/relation"
)

// Durability support. The engine stores nothing on disk, and the durability
// point — the commit hook — is its coordinator's (internal/federation),
// which runs it between PrepareCommit and ApplyPrepared. What the engine
// provides are the two primitives of recovery: BaseState, which freezes
// the base relations and the epoch in one call, between two commits, so a
// checkpoint serializes one committed state without stalling commits
// (everything else is re-derived by Preprocess at recovery, with the usual
// latitude in M and the light parts; the result, N, and the epoch are
// exact), and RestoreEpoch, which seats the epoch once the log tail has
// been replayed through the normal commit path. The first checkpoint, of
// epoch 1, needs no freeze: Preprocess hands the sealed base relations to
// its alongside, which writes it while the views materialize.

// Base is one base relation: the original relation name and a handle on
// its first occurrence's relation (all occurrences hold identical content) —
// frozen and read-only from BaseState, live in Preprocess's alongside.
type Base struct {
	Name string
	Rel  *relation.Relation
}

// BaseState captures the engine's committed epoch and a frozen handle for
// every original base relation, in first-occurrence order — the capture is
// O(#relations) and copies no tuples.
// The caller must Release every returned handle; until then a writer
// mutating a captured relation detaches its storage copy-on-first-write,
// exactly as for snapshots.
func (e *Engine) BaseState() (uint64, []Base, error) {
	if !e.preprocessed {
		return 0, nil, fmt.Errorf("core: BaseState: %w (run Preprocess first)", ErrNotBuilt)
	}
	rels := make([]Base, 0, len(e.relTab))
	for i := range e.relTab {
		re := &e.relTab[i]
		rels = append(rels, Base{Name: re.name, Rel: re.occs[0].base.FreezeInto(nil)})
	}
	return e.epoch, rels, nil
}

// RestoreEpoch seats the epoch counter at a recovered value. It is meant
// for the recovery path only, after Preprocess (which left the epoch at 1)
// and the replay of the log tail, before a hook or a sink is attached.
func (e *Engine) RestoreEpoch(epoch uint64) { e.epoch = epoch }
