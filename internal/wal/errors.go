package wal

import "fmt"

// CorruptLogError reports write-ahead log or checkpoint data that is
// present but wrong — a checksum mismatch, a malformed record, an epoch
// discontinuity between checkpoint and log tail. It is NOT returned for the
// one damage class a crash legitimately produces, a torn final record,
// which recovery truncates silently; a CorruptLogError means the directory
// cannot be trusted to reproduce a committed state, and recovery refuses to
// guess. Match it with errors.As:
//
//	var cle *ivmeps.CorruptLogError
//	if errors.As(err, &cle) { ... cle.Path ...
type CorruptLogError struct {
	// Path is the offending file (or the log directory when the violation
	// spans files).
	Path string
	// Offset is the byte offset of the offending frame within Path, when
	// the violation is tied to one.
	Offset int64
	// Reason describes the violation.
	Reason string
}

// Error formats the corruption report.
func (e *CorruptLogError) Error() string {
	if e.Offset == 0 {
		return fmt.Sprintf("ivmeps: corrupt log: %s: %s", e.Path, e.Reason)
	}
	return fmt.Sprintf("ivmeps: corrupt log: %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// LogWedgedError reports an engine whose write-ahead log has wedged: an
// append, flush, fsync, or segment rotation failed, so the on-disk tail of
// the log is unknowable (a failed fsync in particular may or may not have
// persisted anything — the PostgreSQL fsyncgate lesson is that retrying
// cannot find out — so it is never retried). The Log latches the error and
// refuses every further Append and Checkpoint with it, and the engine
// degrades to read-only: every further mutation — Insert, Delete, Apply,
// Commit — returns this same error with the in-memory state exactly as it
// was before the failed commit, while Snapshot, All, and Count keep serving
// the last committed state. The failed commit itself was not applied;
// whether its record reached stable storage is uncertain, and recovery
// resolves that honestly: reopen the directory with Open, which replays
// exactly the records that made it to disk. Match it with errors.As:
//
//	var lwe *ivmeps.LogWedgedError
//	if errors.As(err, &lwe) { ... reopen via ivmeps.Open ...
type LogWedgedError struct {
	// Op names the I/O operation that failed first: "append", "flush",
	// "sync", or "rotate".
	Op string
	// Err is the original I/O error from that operation.
	Err error
}

// Error formats the wedge report.
func (e *LogWedgedError) Error() string {
	return fmt.Sprintf("ivmeps: write-ahead log wedged by %s failure: %v (engine is read-only; recover by reopening with Open)", e.Op, e.Err)
}

// Unwrap exposes the original I/O error to errors.Is / errors.As.
func (e *LogWedgedError) Unwrap() error { return e.Err }
