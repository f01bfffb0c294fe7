package wal

import (
	"errors"
	"fmt"
)

// ErrNoCheckpoint reports a recovery attempt on a directory that holds no
// loadable checkpoint — either it never held a log (open it fresh instead)
// or every checkpoint file is damaged.
var ErrNoCheckpoint = errors.New("wal: no loadable checkpoint in log directory")

// Recovery is an in-progress recovery of a log directory: the checkpoint to
// rebuild state from, plus the scanned segment list for the replay and
// continuation steps. Use it in order: BeginRecovery, rebuild the engine
// from Checkpoint, Replay the tail into it, then Continue for the append
// handle.
type Recovery struct {
	// Checkpoint is the newest loadable checkpoint. When several exist and
	// the newest is damaged, an older one is selected; the replay's epoch
	// continuity check guarantees the longer tail is actually present, so a
	// fallback can never silently produce a stale state.
	Checkpoint *Checkpoint
	// LastEpoch is the last epoch replayed (the checkpoint epoch until
	// Replay runs). A successful recovery leaves the engine exactly at this
	// epoch.
	LastEpoch uint64

	opts     Options
	segs     []segMeta
	tmps     []string // temporary files the scan found, swept by Continue
	replayed bool
}

// BeginRecovery scans the log directory opts.Dir through opts.FS and loads
// its newest loadable checkpoint. The log tail is not read yet; rebuild the
// engine from the checkpoint first, then call Replay. Replay and Continue
// run on the same options, so a whole recovery and the Log it produces use
// one directory and one file-operation implementation. BeginRecovery writes
// nothing, and Replay writes only to fix a torn tail.
func BeginRecovery(opts Options) (*Recovery, error) {
	opts = opts.normalized()
	segInfos, ckpts, tmps, err := ScanDirFS(opts.FS, opts.Dir)
	if err != nil {
		return nil, err
	}
	r := &Recovery{opts: opts, tmps: tmps}
	var lastErr error
	for i := len(ckpts) - 1; i >= 0; i-- {
		ck, err := LoadCheckpointFS(opts.FS, ckpts[i].Path)
		if err != nil {
			// Fall back to an older checkpoint only for content damage
			// (*CorruptLogError): older segments may already be retired, so
			// recovering from an older checkpoint is a last resort for a
			// genuinely rotted file. An I/O failure reading the file says
			// nothing about its content — surface it and let the caller
			// retry, rather than fall back and misreport the retired gap
			// as corruption.
			var ce *CorruptLogError
			if !errors.As(err, &ce) {
				return nil, err
			}
			lastErr = err
			continue
		}
		if ck.Epoch != ckpts[i].Epoch {
			lastErr = &CorruptLogError{Path: ckpts[i].Path, Reason: fmt.Sprintf("checkpoint claims epoch %d but is named for %d", ck.Epoch, ckpts[i].Epoch)}
			continue
		}
		r.Checkpoint = ck
		break
	}
	if r.Checkpoint == nil {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, ErrNoCheckpoint
	}
	r.LastEpoch = r.Checkpoint.Epoch
	for _, si := range segInfos {
		r.segs = append(r.segs, segMeta{seq: si.Seq, path: si.Path})
	}
	return r, nil
}

// Replay scans every segment in sequence order and calls fn for each record
// with an epoch above the checkpoint's, enforcing that record epochs are
// strictly consecutive across the whole log and that the tail connects to
// the checkpoint (first replayed epoch = checkpoint epoch + 1). A bad
// record at the physical tail of the final segment is a torn write: with
// fix set it is truncated away (and anything the tear made unreachable with
// it), without fix it just ends the replay. A bad record anywhere else is a
// *CorruptLogError. fn errors abort the replay unchanged.
func (r *Recovery) Replay(fix bool, fn func(Record) error) error {
	prev := uint64(0) // last record epoch seen anywhere in the log
	for i := range r.segs {
		seg := &r.segs[i]
		final := i == len(r.segs)-1
		sd, err := ReadSegmentFS(r.opts.FS, seg.path)
		if err != nil {
			// A crash during rotation can leave the just-created final
			// segment without a complete header; nothing in it was ever
			// acknowledged, so it is a torn write, not corruption. A short
			// header anywhere else — or a full-length header with the wrong
			// magic — stays an error.
			if final {
				if size, statErr := r.opts.FS.Size(seg.path); statErr == nil && size < int64(segmentHeaderSize) {
					if fix {
						if err := r.opts.FS.Remove(seg.path); err != nil {
							return err
						}
						r.segs = r.segs[:i]
					}
					break
				}
			}
			return err
		}
		seg.first = sd.FirstEpoch
		seg.last = sd.FirstEpoch - 1
		if sd.Tail != nil {
			if !final || !sd.TailEndsFile {
				if ce, ok := sd.Tail.(*CorruptLogError); ok {
					return ce
				}
				return &CorruptLogError{Path: seg.path, Offset: sd.Good, Reason: sd.Tail.Error()}
			}
			if fix {
				if err := r.opts.FS.Truncate(seg.path, sd.Good); err != nil {
					return err
				}
			}
		}
		for _, rec := range sd.Records {
			if prev != 0 && rec.Epoch != prev+1 {
				return &CorruptLogError{Path: seg.path, Reason: fmt.Sprintf("epoch gap: record %d follows %d", rec.Epoch, prev)}
			}
			prev = rec.Epoch
			if rec.Epoch <= r.Checkpoint.Epoch {
				continue
			}
			if rec.Epoch != r.LastEpoch+1 {
				return &CorruptLogError{Path: seg.path, Reason: fmt.Sprintf("epoch gap: tail starts at %d but checkpoint is at %d", rec.Epoch, r.Checkpoint.Epoch)}
			}
			if err := fn(rec); err != nil {
				return err
			}
			r.LastEpoch = rec.Epoch
			seg.last = rec.Epoch
		}
		if len(sd.Records) > 0 {
			seg.last = sd.Records[len(sd.Records)-1].Epoch
		}
	}
	r.replayed = true
	return nil
}

// Continue opens the replayed log for appending, on the options recovery
// began with: the surviving segments are kept for retirement bookkeeping
// and a fresh segment will start at the first append (first epoch
// LastEpoch+1), so a recovered process never appends into a file a crash
// may have touched. It removes the temporary files the scan found.
func (r *Recovery) Continue() (*Log, error) {
	if !r.replayed {
		return nil, errors.New("wal: Continue before Replay")
	}
	removeAll(r.opts.FS, r.tmps)
	nextSeq := uint64(1)
	for _, s := range r.segs {
		if s.seq >= nextSeq {
			nextSeq = s.seq + 1
		}
	}
	return &Log{opts: r.opts, segs: r.segs, nextSeq: nextSeq, last: r.LastEpoch}, nil
}
