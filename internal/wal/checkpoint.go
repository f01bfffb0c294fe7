package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
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
// Log.Checkpoint writes a checkpoint to a .tmp file, fsyncs it, and renames
// it into place: a crash mid-write leaves only a temporary file, which the
// next Create or Recovery.Continue in the directory removes, so a
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
	// Size is the number of rows Rows yields, written before them. A Rows
	// that yields another number fails the checkpoint, which then leaves no
	// file.
	Size int
}

// CheckpointData is one base relation loaded from a checkpoint.
type CheckpointData struct {
	// Name is the original relation name.
	Name string
	// Arity is the relation's arity.
	Arity int
	// Vals holds the stored tuples back to back, Arity values each, in one
	// arena; Mults holds their multiplicities, one per tuple.
	Vals  []int64
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

// encodeCheckpoint returns the checkpoint file of epoch: header and payload.
// It walks each relation once, encoding its rows into one buffer, behind a
// header reserved at its front and the relation's row count, its Size. The
// buffer doubles when a row does not fit, but once a relation has walked an
// eighth of its Size it grows by room for the rows left, at the relation's
// bytes a row so far and an eighth more. A relation whose Rows yields other
// than Size rows fails the encoding.
func encodeCheckpoint(epoch uint64, query string, rels []CheckpointRel) ([]byte, error) {
	buf := make([]byte, checkpointHeaderSize)
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, uint64(len(query)))
	buf = append(buf, query...)
	buf = binary.AppendUvarint(buf, uint64(len(rels)))
	for _, r := range rels {
		buf = binary.AppendUvarint(buf, uint64(len(r.Name)))
		buf = append(buf, r.Name...)
		buf = binary.AppendUvarint(buf, uint64(r.Arity))
		buf = binary.AppendUvarint(buf, uint64(r.Size))
		at, rows := len(buf), 0
		r.Rows(func(row []int64, mult int64) {
			if need := (len(row) + 1) * binary.MaxVarintLen64; cap(buf)-len(buf) < need {
				more := len(buf)
				if 8*rows >= r.Size && r.Size > rows {
					more = int(float64(r.Size-rows) * float64(len(buf)-at) / float64(rows) * 9 / 8)
				}
				buf = slices.Grow(buf, max(more, need))
			}
			b, n := buf[len(buf):cap(buf)], 0
			for _, v := range row {
				n += binary.PutVarint(b[n:], v)
			}
			n += binary.PutVarint(b[n:], mult)
			buf = buf[:len(buf)+n]
			rows++
		})
		if rows != r.Size {
			return nil, fmt.Errorf("wal: checkpoint of %s: Rows yielded %d rows, Size says %d", r.Name, rows, r.Size)
		}
	}
	payload := buf[checkpointHeaderSize:]
	copy(buf, checkpointMagic)
	binary.LittleEndian.PutUint64(buf[len(checkpointMagic):], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(checkpointMagic)+8:], crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// LoadCheckpointFS reads and verifies one checkpoint file through fs.
func LoadCheckpointFS(fs VFS, path string) (*Checkpoint, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < checkpointHeaderSize || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, &CorruptLogError{Path: path, Reason: "missing checkpoint header"}
	}
	plen := binary.LittleEndian.Uint64(data[len(checkpointMagic):])
	if plen != uint64(len(data)-checkpointHeaderSize) {
		return nil, &CorruptLogError{Path: path, Reason: fmt.Sprintf("checkpoint length %d does not match file size", plen)}
	}
	payload := data[checkpointHeaderSize:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[len(checkpointMagic)+8:]); got != want {
		return nil, &CorruptLogError{Path: path, Reason: fmt.Sprintf("checkpoint checksum mismatch: computed %08x, stored %08x", got, want)}
	}
	ck, err := decodeCheckpoint(payload)
	if err != nil {
		if ce, ok := err.(*CorruptLogError); ok {
			ce.Path = path
		}
		return nil, err
	}
	return ck, nil
}

// decodeCheckpoint decodes a checksum-verified checkpoint payload, each
// relation's rows into one value arena. As with records, allocation is
// bounded by the payload length, never by a count field alone: a count is
// checked against the bytes left — a relation takes at least 3 bytes, a row
// at least arity + 1 — before anything is sized by it.
func decodeCheckpoint(p []byte) (*Checkpoint, error) {
	bad := func(what string) error { return &CorruptLogError{Reason: "checkpoint: bad " + what} }
	off := 0
	epoch, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, bad("epoch")
	}
	off += n
	qlen, n := binary.Uvarint(p[off:])
	if n <= 0 || qlen > uint64(len(p)-off-n) {
		return nil, bad("query length")
	}
	off += n
	ck := &Checkpoint{Epoch: epoch, Query: string(p[off : off+int(qlen)])}
	off += int(qlen)
	nRels, n := binary.Uvarint(p[off:])
	if n <= 0 || nRels > uint64(len(p)-off-n)/3 {
		return nil, bad("relation count")
	}
	off += n
	ck.Rels = make([]CheckpointData, 0, nRels)
	for i := uint64(0); i < nRels; i++ {
		nameLen, n := binary.Uvarint(p[off:])
		if n <= 0 || nameLen > uint64(len(p)-off-n) {
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
		if n <= 0 || nRows > uint64(len(p)-off-n)/(arity+1) {
			return nil, bad("row count")
		}
		off += n
		rel.Vals = make([]int64, 0, int(nRows)*rel.Arity)
		rel.Mults = make([]int64, 0, nRows)
		for j := uint64(0); j < nRows; j++ {
			for k := 0; k < rel.Arity; k++ {
				v, n := binary.Varint(p[off:])
				if n <= 0 {
					return nil, bad("row value")
				}
				rel.Vals = append(rel.Vals, v)
				off += n
			}
			mult, n := binary.Varint(p[off:])
			if n <= 0 {
				return nil, bad("row multiplicity")
			}
			off += n
			rel.Mults = append(rel.Mults, mult)
		}
		ck.Rels = append(ck.Rels, rel)
	}
	if off != len(p) {
		return nil, bad("trailing bytes")
	}
	return ck, nil
}
