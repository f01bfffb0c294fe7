package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"path/filepath"
)

// Checkpoint files. A checkpoint serializes the base relations of one
// committed epoch — everything else the engine holds (views, light parts,
// indicators) is derived deterministically from them at load time by the
// normal preprocessing path, so the file stays compact. The layout is
//
//	magic "IVMCKP1\n" | payloadLen u64 LE | crc32c(payload) u32 LE | payload
//
// with the payload
//
//	epoch   uvarint
//	query   uvarint length | bytes (the canonical query string, so recovery
//	        can refuse a log directory opened under a different query)
//	nRels   uvarint
//	per rel: uvarint name length | name | uvarint arity | uvarint nRows
//	         | per row: arity varint values | varint multiplicity
//
// A checkpoint is written to a .tmp file, fsynced, and renamed into place:
// a crash mid-write leaves only a temporary file that ScanDirFS removes, so a
// checkpoint is either completely visible or not at all.

// checkpointMagic begins every checkpoint file.
const checkpointMagic = "IVMCKP1\n"

// checkpointHeaderSize is the byte length of a checkpoint header.
const checkpointHeaderSize = len(checkpointMagic) + 12

// CheckpointRel describes one base relation to be serialized into a
// checkpoint: its original name, arity, and a row iterator (typically over
// a frozen relation handle, so the writer keeps committing while the
// checkpoint streams out).
type CheckpointRel struct {
	Name  string
	Arity int
	Rows  func(yield func(row []int64, mult int64))
}

// CheckpointData is one base relation loaded from a checkpoint.
type CheckpointData struct {
	// Name is the original relation name.
	Name string
	// Arity is the relation's arity.
	Arity int
	// Rows and Mults hold the stored tuples pairwise.
	Rows  [][]int64
	Mults []int64
}

// Checkpoint is a loaded checkpoint file.
type Checkpoint struct {
	// Epoch is the committed epoch the checkpoint serializes.
	Epoch uint64
	// Query is the canonical string of the query the log belongs to.
	Query string
	// Rels are the base relations, in the engine's first-occurrence order.
	Rels []CheckpointData
}

// WriteCheckpointFS serializes a checkpoint of epoch into dir through fs,
// atomically (temp file + fsync + rename). It does not touch the commit
// log; call Log.Checkpointed afterwards to retire segments the checkpoint
// covers. A failure on any step never leaves a visible (renamed)
// checkpoint: the temp file is removed best-effort, and that removal can
// never mask the original error — the write/sync/close/rename error is
// always the one returned. When strictDirSync is set (the engine passes it
// under SyncAlways), a failed directory fsync after the rename is an error,
// because the checkpoint's durability against power loss is part of the
// guarantee there; otherwise it is best-effort (an undurable rename
// reappears as the pre-checkpoint state, which recovery handles by
// replaying a longer tail).
func WriteCheckpointFS(fs VFS, dir string, epoch uint64, query string, rels []CheckpointRel, strictDirSync bool) error {
	// A counting pass sizes the payload — every relation's row count and
	// encoded row bytes — so the encoding pass fills one buffer, behind a
	// header reserved at its front, without growing it.
	rows := make([]int, len(rels))
	size := uvarintLen(epoch) + uvarintLen(uint64(len(query))) + len(query) + uvarintLen(uint64(len(rels)))
	for i, r := range rels {
		r.Rows(func(row []int64, mult int64) {
			rows[i]++
			for _, v := range row {
				size += varintLen(v)
			}
			size += varintLen(mult)
		})
		size += uvarintLen(uint64(len(r.Name))) + len(r.Name) + uvarintLen(uint64(r.Arity)) + uvarintLen(uint64(rows[i]))
	}
	buf := make([]byte, checkpointHeaderSize, checkpointHeaderSize+size)
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, uint64(len(query)))
	buf = append(buf, query...)
	buf = binary.AppendUvarint(buf, uint64(len(rels)))
	for i, r := range rels {
		buf = binary.AppendUvarint(buf, uint64(len(r.Name)))
		buf = append(buf, r.Name...)
		buf = binary.AppendUvarint(buf, uint64(r.Arity))
		buf = binary.AppendUvarint(buf, uint64(rows[i]))
		r.Rows(func(row []int64, mult int64) {
			for _, v := range row {
				buf = binary.AppendVarint(buf, v)
			}
			buf = binary.AppendVarint(buf, mult)
		})
	}
	payload := buf[checkpointHeaderSize:]
	copy(buf, checkpointMagic)
	binary.LittleEndian.PutUint64(buf[len(checkpointMagic):], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(checkpointMagic)+8:], crc32.Checksum(payload, castagnoli))

	tmp := filepath.Join(dir, checkpointName(epoch)+".tmp")
	f, err := fs.CreateTrunc(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, checkpointName(epoch))); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.SyncDir(dir); err != nil && strictDirSync {
		return fmt.Errorf("wal: directory fsync after checkpoint rename: %w", err)
	}
	return nil
}

// uvarintLen is the byte length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the byte length of v as a (zig-zag) varint.
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// LoadCheckpointFS reads and verifies one checkpoint file through fs.
func LoadCheckpointFS(fs VFS, path string) (*Checkpoint, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < checkpointHeaderSize || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, &CorruptError{Path: path, Reason: "missing checkpoint header"}
	}
	plen := binary.LittleEndian.Uint64(data[len(checkpointMagic):])
	if plen != uint64(len(data)-checkpointHeaderSize) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("checkpoint length %d does not match file size", plen)}
	}
	payload := data[checkpointHeaderSize:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[len(checkpointMagic)+8:]); got != want {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("checkpoint checksum mismatch: computed %08x, stored %08x", got, want)}
	}
	ck, err := decodeCheckpoint(payload)
	if err != nil {
		if ce, ok := err.(*CorruptError); ok {
			ce.Path = path
		}
		return nil, err
	}
	return ck, nil
}

// decodeCheckpoint decodes a checksum-verified checkpoint payload. As with
// records, allocation is bounded by the payload length, never by a count
// field alone.
func decodeCheckpoint(p []byte) (*Checkpoint, error) {
	bad := func(what string) error { return &CorruptError{Reason: "checkpoint: bad " + what} }
	off := 0
	epoch, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, bad("epoch")
	}
	off += n
	qlen, n := binary.Uvarint(p[off:])
	if n <= 0 || qlen > uint64(len(p)-off) {
		return nil, bad("query length")
	}
	off += n
	ck := &Checkpoint{Epoch: epoch, Query: string(p[off : off+int(qlen)])}
	off += int(qlen)
	nRels, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return nil, bad("relation count")
	}
	off += n
	for i := uint64(0); i < nRels; i++ {
		nameLen, n := binary.Uvarint(p[off:])
		if n <= 0 || nameLen > uint64(len(p)-off) {
			return nil, bad("relation name length")
		}
		off += n
		rel := CheckpointData{Name: string(p[off : off+int(nameLen)])}
		off += int(nameLen)
		arity, n := binary.Uvarint(p[off:])
		if n <= 0 || arity > uint64(len(p)-off)+1 {
			return nil, bad("relation arity")
		}
		rel.Arity = int(arity)
		off += n
		nRows, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return nil, bad("row count")
		}
		off += n
		for j := uint64(0); j < nRows; j++ {
			row := make([]int64, 0, rel.Arity)
			for k := 0; k < rel.Arity; k++ {
				v, n := binary.Varint(p[off:])
				if n <= 0 {
					return nil, bad("row value")
				}
				row = append(row, v)
				off += n
			}
			mult, n := binary.Varint(p[off:])
			if n <= 0 {
				return nil, bad("row multiplicity")
			}
			off += n
			rel.Rows = append(rel.Rows, row)
			rel.Mults = append(rel.Mults, mult)
		}
		ck.Rels = append(ck.Rels, rel)
	}
	if off != len(p) {
		return nil, bad("trailing bytes")
	}
	return ck, nil
}
