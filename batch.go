package ivmeps

import "ivmeps/internal/core"

// Batch collects single-tuple updates — inserts, deletes, weighted applies
// — across any of a query's relations, for Engine.Commit to apply as one
// atomic maintenance commit. The Batch obtained from NewBatch is empty;
// the builder methods never fail
// (validation happens in Commit) and return the batch for chaining:
//
//	b := e.NewBatch()
//	b.Insert("R", []int64{1, 10})
//	b.Delete("S", []int64{10, 7})
//	b.Apply("R", []int64{2, 10}, -2)
//	err := e.Commit(b)
//
// Row slices are referenced, not copied: they must not be mutated until
// Commit returns. Commit leaves the batch intact — Reset it to start the
// next batch reusing its storage (the steady-state Reset/refill/Commit
// cycle performs no heap allocation), or Commit it again to re-apply the
// same updates.
//
// A batch holds only relation names and rows, so it may be committed to any
// engine, and to several in turn: each Commit resolves the names against
// its own engine's relations. It is not safe for concurrent use, Commit
// included, since validation records the resolved ids in its ops.
type Batch struct {
	ops []core.BatchOp
}

// Insert queues the single-tuple insert {row → +1} against rel.
func (b *Batch) Insert(rel string, row []int64) *Batch { return b.Apply(rel, row, 1) }

// Delete queues the single-tuple delete {row → −1} against rel. Deletes
// may exceed the stored multiplicity only if earlier ops of the same batch
// cover the difference; otherwise Commit rejects the whole batch with a
// MultiplicityError.
func (b *Batch) Delete(rel string, row []int64) *Batch { return b.Apply(rel, row, -1) }

// Apply queues the single-tuple update {row → mult} against rel: positive
// to insert, negative to delete. A zero mult contributes nothing but is
// still validated by Commit (relation and arity). An unknown relation name
// is detected by Commit, which reports it with ErrUnknownRelation.
func (b *Batch) Apply(rel string, row []int64, mult int64) *Batch {
	b.ops = append(b.ops, core.BatchOp{Rel: rel, Row: row, Mult: mult})
	return b
}

// Len returns the number of queued updates.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch for reuse, keeping its storage (and dropping the
// references to previously queued rows).
func (b *Batch) Reset() {
	clear(b.ops)
	b.ops = b.ops[:0]
}
