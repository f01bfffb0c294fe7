// Package wal is the engine's durability layer: a segmented, CRC-framed,
// append-only commit log plus compact checkpoint files, both living in one
// log directory. The commit log records every committed batch — the
// validated op stream, stamped with the epoch the commit published — and a
// checkpoint serializes the base relations of one committed epoch, so
// recovery is "load the newest checkpoint, replay the log tail", never a
// full re-ingest of history.
//
// # Directory layout
//
// A log directory contains two kinds of files:
//
//	wal-<seq>.seg     log segments, numbered by creation sequence
//	ckpt-<epoch>.ckpt checkpoints, named by the epoch they serialize
//
// Segments are strictly append-only and are written by exactly one process
// at a time (the engine's writer lock, Fed.mu, serializes Append calls; the
// package adds its own mutex only to order appends against checkpoint-time
// rotation and retirement). A segment starts with an 8-byte magic string and the
// first epoch it may contain; records follow back to back. Epochs are
// globally consecutive across the whole log: every record's epoch is
// exactly one above the previous record's, across segment boundaries, which
// is what lets recovery prove it replayed every committed batch (any gap is
// corruption, not silence).
//
// # Records and torn writes
//
// Each record frames its payload with a length and a CRC-32C checksum
// (record.go). A crash can tear the final record of the final segment —
// length without payload, payload cut short, a checksum over half-written
// bytes — and recovery truncates such a tail cleanly: the log shrinks to
// the longest prefix of intact records, which by construction is a prefix
// of the committed batches. A bad record that is NOT the physical tail
// (intact data follows it) cannot be a torn write and is reported as a
// CorruptLogError instead of being silently dropped.
//
// # Checkpoints
//
// Log.Checkpoint, the one call behind Build's initial checkpoint and
// Engine.Checkpoint (which cmd/ivmd makes when it drains), serializes the
// base relations at one epoch to a temporary file and renames it into
// place, so a crash mid-checkpoint never leaves a half-visible checkpoint.
// Checkpoints run one at a time, beside appends. After a successful
// checkpoint, segments whose records all fall at or below the checkpoint
// epoch are retired (deleted), and older checkpoints beyond one spare are
// removed. BeginRecovery, from the log's Options, prefers the newest
// loadable checkpoint and falls back to an older one when the newest is
// damaged (its content fails verification — an I/O error reading it aborts
// recovery instead, since it says nothing about the file); the
// epoch-continuity check makes a fallback that cannot be completed by
// replay fail loudly. Only Create and Recovery.Continue, which take the
// directory for appending, delete the temporaries a crash left: the scan
// only reads, so cmd/ivmwal's inspect and verify write nothing.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SyncMode selects how eagerly the log forces appended records to stable
// storage. The choice trades commit latency against the failure classes a
// committed batch survives; see the package ivmeps documentation and
// docs/DURABILITY.md for the guarantee table.
type SyncMode int

// The fsync policies, from fastest to most durable.
const (
	// SyncOff buffers appends in user space and writes them to the OS only
	// when the buffer fills. A process kill can lose the buffered suffix of
	// recent commits; recovery still restores a clean committed prefix.
	SyncOff SyncMode = iota
	// SyncBatched writes every record to the OS at append time (a process
	// kill loses at most the record being written) and calls fsync once
	// every batchEvery appends, bounding what an OS crash or power loss can
	// take to the last sync window.
	SyncBatched
	// SyncAlways flushes and fsyncs every append: a committed batch
	// survives process kills, OS crashes, and power loss, at one fsync of
	// latency per commit.
	SyncAlways
)

// String names the mode ("off", "batched", "always").
func (m SyncMode) String() string {
	switch m {
	case SyncBatched:
		return "batched"
	case SyncAlways:
		return "always"
	default:
		return "off"
	}
}

// Options configures a Log.
type Options struct {
	// Dir is the log directory.
	Dir string
	// Sync is the fsync policy applied by Append.
	Sync SyncMode
	// SegmentBytes rotates the active segment once it reaches this size;
	// 0 means the 64 MiB default.
	SegmentBytes int64
	// FS is the file-operation implementation; nil means OSFS (direct os
	// calls). Tests inject fault-injecting implementations here
	// (internal/wal/faultfs).
	FS VFS
}

// DefaultSegmentBytes is the segment rotation threshold when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 64 << 20

// batchEvery is the SyncBatched fsync cadence in appends.
const batchEvery = 64

func (o Options) normalized() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FS == nil {
		o.FS = OSFS
	}
	return o
}

// segMeta is the Log's in-memory bookkeeping for one segment file: its
// sequence number, and the epoch range of the records it holds. An empty
// segment has last == first-1.
type segMeta struct {
	seq   uint64
	path  string
	first uint64
	last  uint64
}

// Log is an open commit log: an append handle on the active segment plus
// the metadata needed to rotate and retire segments. Append may be called
// from one goroutine at a time (the engine's writer lock, Fed.mu, provides
// that); Checkpoint may be called from any goroutine, concurrently with
// Append and with other Checkpoint calls.
//
// A Log is fail-stop: the first append/flush/fsync/rotate error latches a
// sticky wedged state (LogWedgedError) and every subsequent Append and
// Checkpoint refuses with it. Nothing is ever written after an error —
// in particular a failed fsync is never retried, because its page-cache
// state is unknowable — so the on-disk committed prefix stays exactly what
// recovery needs.
type Log struct {
	opts     Options
	ckMu     sync.Mutex // serializes Checkpoint; taken before mu
	mu       sync.Mutex
	segs     []segMeta // in seq order; the last entry is the active segment (if any)
	f        File      // active segment file; nil until the first append
	w        *bufio.Writer
	size     int64
	nextSeq  uint64
	last     uint64 // last epoch appended (0 = none yet)
	unsynced int    // appends since the last fsync (SyncBatched)
	buf      []byte // pooled record-encoding buffer
	wedged   *LogWedgedError
}

// Create opens a fresh log in opts.Dir, creating the directory if needed.
// It refuses a directory that already contains log segments or checkpoints
// — recover those with BeginRecovery (ivmeps.Open) instead, or point at an
// empty directory. It removes the temporary files it finds.
func Create(opts Options) (*Log, error) {
	opts = opts.normalized()
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	segs, ckpts, tmps, err := ScanDirFS(opts.FS, opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 || len(ckpts) > 0 {
		return nil, fmt.Errorf("wal: directory %s already contains a log (%d segments, %d checkpoints); use Open to recover it", opts.Dir, len(segs), len(ckpts))
	}
	removeAll(opts.FS, tmps)
	return &Log{opts: opts, nextSeq: 1}, nil
}

// wedgeLocked latches the sticky wedged state on the first failure (later
// failures keep the original evidence) and returns it.
func (l *Log) wedgeLocked(op string, err error) error {
	if l.wedged == nil {
		l.wedged = &LogWedgedError{Op: op, Err: err}
	}
	return l.wedged
}

// Append writes one commit record — the epoch the commit publishes and its
// validated op stream — to the active segment, rotating first if the
// segment reached Options.SegmentBytes, and applies the sync policy. Epochs
// must arrive strictly consecutively; the caller (the engine commit path)
// guarantees that by construction.
//
// Any I/O failure wedges the log: the error comes back wrapped in a
// *LogWedgedError and every later Append returns the same error without
// touching the files again. A failed append may have left a partial frame
// at the tail of the active segment; because nothing is appended after it,
// recovery truncates it as a torn tail.
func (l *Log) Append(epoch uint64, ops []Op) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return l.wedged
	}
	if l.f == nil || l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(epoch); err != nil {
			return l.wedgeLocked("rotate", err)
		}
	}
	l.buf = appendRecord(l.buf[:0], epoch, ops)
	n, err := l.w.Write(l.buf)
	l.size += int64(n)
	if err != nil {
		return l.wedgeLocked("append", err)
	}
	l.last = epoch
	l.segs[len(l.segs)-1].last = epoch
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.w.Flush(); err != nil {
			return l.wedgeLocked("flush", err)
		}
		if err := l.f.Sync(); err != nil {
			return l.wedgeLocked("sync", err)
		}
	case SyncBatched:
		if err := l.w.Flush(); err != nil {
			return l.wedgeLocked("flush", err)
		}
		l.unsynced++
		if l.unsynced >= batchEvery {
			l.unsynced = 0
			if err := l.f.Sync(); err != nil {
				return l.wedgeLocked("sync", err)
			}
		}
	}
	return nil
}

// rotateLocked closes the active segment (flushing and syncing it) and
// opens the next one, whose header names first as the first epoch it may
// contain. Under SyncAlways the directory fsync after the create is part of
// the durability guarantee (the new segment's directory entry must survive
// power loss before records in it are acknowledged) and its failure is an
// error; weaker modes keep it best-effort, consistent with their window of
// acknowledged-but-lost commits.
func (l *Log) rotateLocked(first uint64) error {
	if err := l.closeActiveLocked(); err != nil {
		return err
	}
	seq := l.nextSeq
	l.nextSeq++
	path := filepath.Join(l.opts.Dir, segmentName(seq))
	f, err := l.opts.FS.Create(path)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, segmentHeaderSize)
	hdr = append(hdr, segmentMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, first)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.size = int64(len(hdr))
	l.unsynced = 0
	l.segs = append(l.segs, segMeta{seq: seq, path: path, first: first, last: first - 1})
	if err := l.opts.FS.SyncDir(l.opts.Dir); err != nil && l.opts.Sync == SyncAlways {
		return fmt.Errorf("wal: directory fsync after segment create: %w", err)
	}
	return nil
}

// closeActiveLocked flushes, fsyncs, and closes the active segment file.
func (l *Log) closeActiveLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f, l.w, l.size = nil, nil, 0
	return err
}

// Close flushes and closes the active segment. A log must be closed (or
// every commit synced with SyncAlways/SyncBatched) for buffered appends to
// reach the OS; see SyncOff. Close is idempotent, and Close on a wedged
// log writes nothing — no flush, no fsync — because the wedge means the
// file's state is unknowable; it just releases the descriptor and returns
// nil (the wedge was already reported to the append that latched it).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		if l.f != nil {
			l.f.Close()
			l.f, l.w, l.size = nil, nil, 0
		}
		return nil
	}
	err := l.closeActiveLocked()
	if err != nil {
		// A failed close flush/fsync wedges like a failed append: the tail's
		// state is unknowable, so a (buggy) later use must not write.
		return l.wedgeLocked("flush", err)
	}
	return nil
}

// LastEpoch returns the epoch of the most recently appended record, or the
// epoch recovery replayed to when nothing has been appended since.
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Checkpoint writes the checkpoint of epoch, the base relations rels of
// query, atomically (temp file + fsync + rename + directory fsync) and then
// retires what it covers. A failure on any step never leaves a visible
// checkpoint: the temp file is removed best-effort, and that removal can
// never mask the step's error. A failed directory fsync is an error under
// SyncAlways, where the checkpoint's durability against power loss is part
// of the guarantee; otherwise it is best-effort (an undurable rename
// reappears as the pre-checkpoint state, which recovery handles by
// replaying a longer tail). Retirement rotates the active segment (so the
// pre-checkpoint tail stops growing), deletes every non-active segment
// whose records all fall at or below epoch, and deletes all but the newest
// older checkpoint (the spare covers the new file rotting on disk —
// recovery falls back and replays the longer tail). Checkpoints run one at
// a time, so two never share or delete each other's temp file; appends
// wait only for the rotation. A wedged log refuses and touches no file.
func (l *Log) Checkpoint(epoch uint64, query string, rels []CheckpointRel) error {
	l.ckMu.Lock()
	defer l.ckMu.Unlock()
	l.mu.Lock()
	wedged := l.wedged
	l.mu.Unlock()
	if wedged != nil {
		return wedged
	}
	buf, err := encodeCheckpoint(epoch, query, rels)
	if err != nil {
		return err
	}
	fs, dir := l.opts.FS, l.opts.Dir
	tmp := filepath.Join(dir, checkpointName(epoch)+".tmp")
	f, err := fs.CreateTrunc(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, filepath.Join(dir, checkpointName(epoch)))
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.SyncDir(dir); err != nil && l.opts.Sync == SyncAlways {
		return fmt.Errorf("wal: directory fsync after checkpoint rename: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return l.wedged
	}
	// Rotate only a segment that holds records; an empty active segment can
	// keep serving appends.
	if l.f != nil && l.segs[len(l.segs)-1].last >= l.segs[len(l.segs)-1].first {
		if err := l.rotateLocked(l.last + 1); err != nil {
			return l.wedgeLocked("rotate", err)
		}
	}
	var kept []segMeta
	for i, s := range l.segs {
		active := i == len(l.segs)-1
		if !active && s.last <= epoch {
			// Retirement failures don't wedge: nothing was written to the log
			// stream, so appends remain safe; the caller just learns cleanup
			// didn't finish (a later checkpoint retries it).
			if err := fs.Remove(s.path); err != nil && !os.IsNotExist(err) {
				return err
			}
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	fs.SyncDir(dir) // best-effort: retired files reappearing is harmless
	return retireCheckpoints(fs, dir, epoch)
}

// retireCheckpoints deletes checkpoints older than the newest one below
// epoch — i.e. it keeps the checkpoint at epoch and one older spare.
func retireCheckpoints(fs VFS, dir string, epoch uint64) error {
	_, ckpts, _, err := ScanDirFS(fs, dir)
	if err != nil {
		return err
	}
	var older []CkptInfo
	for _, c := range ckpts {
		if c.Epoch < epoch {
			older = append(older, c)
		}
	}
	for i := 0; i+1 < len(older); i++ { // older is epoch-sorted; keep the last
		if err := fs.Remove(older[i].Path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// SegInfo names one on-disk segment file.
type SegInfo struct {
	// Seq is the segment's creation sequence number (from its filename).
	Seq uint64
	// Path is the file path.
	Path string
}

// CkptInfo names one on-disk checkpoint file.
type CkptInfo struct {
	// Epoch is the committed epoch the checkpoint claims to serialize
	// (from its filename; LoadCheckpointFS verifies it).
	Epoch uint64
	// Path is the file path.
	Path string
}

// ScanDirFS lists the segments (in sequence order), checkpoints (in epoch
// order) and temporary files of a log directory through fs. It only reads;
// unrelated files are ignored.
func ScanDirFS(fs VFS, dir string) (segs []SegInfo, ckpts []CkptInfo, tmps []string, err error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
			if err != nil {
				continue
			}
			segs = append(segs, SegInfo{Seq: seq, Path: filepath.Join(dir, name)})
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".ckpt"):
			epoch, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ckpt"), 10, 64)
			if err != nil {
				continue
			}
			ckpts = append(ckpts, CkptInfo{Epoch: epoch, Path: filepath.Join(dir, name)})
		case strings.HasSuffix(name, ".tmp"):
			tmps = append(tmps, filepath.Join(dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].Epoch < ckpts[j].Epoch })
	return segs, ckpts, tmps, nil
}

// removeAll removes paths best-effort: the temporaries a crash left are
// inert (nothing reads .tmp files), so a failure is ignored.
func removeAll(fs VFS, paths []string) {
	for _, p := range paths {
		fs.Remove(p)
	}
}

// segmentName renders the filename of segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016d.seg", seq) }

// checkpointName renders the filename of the checkpoint at epoch.
func checkpointName(epoch uint64) string { return fmt.Sprintf("ckpt-%020d.ckpt", epoch) }
