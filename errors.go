package ivmeps

import (
	"errors"
	"fmt"

	"ivmeps/internal/core"
	"ivmeps/internal/federation"
	"ivmeps/internal/relation"
	"ivmeps/internal/wal"
)

// Every data-validation rejection of the mutation and snapshot paths is
// programmable: it is either one of the sentinel values below (match with
// errors.Is — the values may arrive wrapped with call-site context) or one
// of the structured types ArityError, MultiplicityError, and ShardError
// (match with errors.As); none of them requires matching on error strings. Caller-side
// lifecycle mistakes that no program should branch on — Load after Build,
// Build called twice, a non-positive initial multiplicity, mismatched
// rows/mults lengths, committing another engine's Batch — remain plain
// descriptive errors.
var (
	// ErrNotBuilt is returned by mutation and snapshot entry points invoked
	// before Build, and is the value the implicit-snapshot reads (All,
	// Count) panic with in the same situation — the package's one panicking
	// misuse; see the package documentation.
	ErrNotBuilt = core.ErrNotBuilt

	// ErrUnknownRelation is returned when an update or load names a
	// relation that does not occur in the engine's query.
	ErrUnknownRelation = core.ErrUnknownRelation

	// ErrStatic is returned when an update reaches an engine built with
	// Options.Static, which rejects all post-Build maintenance.
	ErrStatic = core.ErrStatic
)

// ArityError reports a row whose length does not match the schema of the
// relation it was applied to: Row is the rejected row and Schema the
// relation's variable names.
type ArityError = relation.ArityError

// MultiplicityError reports a delete that would drive a row's multiplicity
// below zero. Have is the multiplicity available when the update was
// attempted — for a batch, the stored multiplicity plus the net effect of
// the preceding ops of the same batch — and Delta the attempted change.
type MultiplicityError = relation.MultiplicityError

// ShardError reports a validation failure detected by one shard of a
// sharded engine's (NewSharded) federated commit, identifying the shard.
// It wraps the underlying error — typically a MultiplicityError for a
// delete the owning shard rejected — so errors.Is and errors.As reach
// through it; match the shard attribution itself with errors.As:
//
//	var se *ivmeps.ShardError
//	if errors.As(err, &se) { ... se.Shard ...
//
// Failures detected before any shard is involved — an unknown relation or
// an arity mismatch, caught while scattering the batch — carry no shard
// attribution and are returned without a ShardError wrapper, exactly as an
// unsharded engine returns them.
type ShardError = federation.ShardError

// CorruptLogError reports write-ahead log or checkpoint data that is
// present but wrong — a checksum mismatch, a malformed record, an epoch
// discontinuity between checkpoint and log tail. It is NOT returned for the
// one damage class a crash legitimately produces, a torn final record,
// which Open truncates silently; a CorruptLogError means the directory
// cannot be trusted to reproduce a committed state, and recovery refuses to
// guess. Match it with errors.As:
//
//	var cle *ivmeps.CorruptLogError
//	if errors.As(err, &cle) { ... cle.Path ...
type CorruptLogError = wal.CorruptLogError

// LogWedgedError reports an engine whose write-ahead log has wedged: an
// append, flush, fsync, or segment rotation failed, so the on-disk tail of
// the log is unknowable. The engine degrades to read-only: every further
// mutation returns this same error with the in-memory state untouched,
// while Snapshot, All, and Count keep serving the last committed state;
// recover by reopening the directory with Open. Match it with errors.As:
//
//	var lwe *ivmeps.LogWedgedError
//	if errors.As(err, &lwe) { ... reopen via ivmeps.Open ...
type LogWedgedError = wal.LogWedgedError

// ErrWatcherLagged classifies the eviction of a watcher that fell more
// commits behind the writer than its buffer holds. It never arrives bare:
// the stream's final error is a *WatcherLaggedError carrying the exact
// missed epoch range, which errors.Is matches against this sentinel.
var ErrWatcherLagged = errors.New("ivmeps: watcher lagged behind the commit rate and was evicted")

// WatcherLaggedError is the final error of an evicted watcher's event
// stream: the commits with epochs From through To (inclusive) were dropped.
// Everything before From was delivered in order; nothing after To will be.
// The watcher itself is finished — resynchronize by opening a new Watch,
// whose anchor snapshot reflects everything that was missed. Match the
// class with errors.Is(err, ErrWatcherLagged), the range with errors.As:
//
//	var wle *ivmeps.WatcherLaggedError
//	if errors.As(err, &wle) { ... wle.From, wle.To ...
type WatcherLaggedError struct {
	From, To uint64
}

// Error formats the eviction report.
func (e *WatcherLaggedError) Error() string {
	return fmt.Sprintf("ivmeps: watcher lagged: missed commits %d..%d (buffer full; re-anchor with a new Watch)", e.From, e.To)
}

// Is matches the ErrWatcherLagged sentinel class.
func (e *WatcherLaggedError) Is(target error) bool { return target == ErrWatcherLagged }
