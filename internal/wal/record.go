package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record framing. A segment file is
//
//	magic "IVMWAL1\n" | firstEpoch u64 LE | record*
//
// and each record is
//
//	payloadLen u32 LE | crc32c(payload) u32 LE | payload
//
// with the payload encoding one committed batch:
//
//	epoch  uvarint
//	nOps   uvarint
//	per op: relID uvarint | mult varint (zigzag) | rowLen uvarint
//	        | value varint (zigzag) per row position
//
// Varints keep typical records a few bytes per op (small ids, small values,
// mult ±1); the CRC covers the payload only, the length field's plausibility
// being checked against the remaining file size. DecodeRecord distinguishes
// a record that is *incomplete* (the file ends before the frame does — the
// signature of a torn write, errShortRecord) from one that is *wrong*
// (checksum or encoding violation inside a complete frame — CorruptLogError);
// recovery truncates the former at the physical tail and refuses the
// latter.

// segmentMagic begins every segment file.
const segmentMagic = "IVMWAL1\n"

// segmentHeaderSize is the byte length of a segment header: the magic plus
// the first-epoch field.
const segmentHeaderSize = len(segmentMagic) + 8

// recordHeaderSize is the byte length of a record frame header.
const recordHeaderSize = 8

// MaxRecordBytes bounds a single record's payload; a length field above it
// is corruption, not a huge batch (a batch this size would have exhausted
// memory long before the log saw it).
const MaxRecordBytes = 1 << 28

// castagnoli is the CRC-32C table used for record and checkpoint checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Op is one logged operation of a commit record: the engine-stable relation
// id (Engine.RelID), the row, and the signed multiplicity delta.
type Op struct {
	RelID int
	Mult  int64
	Row   []int64
}

// Record is one decoded commit record: the epoch the commit published and
// its validated op stream.
type Record struct {
	Epoch uint64
	Ops   []Op
}

// errShortRecord reports a record frame cut off by the end of the data —
// the shape a torn write leaves behind. It is internal: the scanners
// translate it into either a clean truncation (at the physical tail of the
// final segment) or a CorruptLogError (anywhere else).
type errShortRecord struct{ have, want int }

// Error formats the torn frame's byte counts.
func (e *errShortRecord) Error() string {
	return fmt.Sprintf("wal: record cut short: %d of %d bytes", e.have, e.want)
}

// appendRecord appends the framed encoding of one commit record to dst.
func appendRecord(dst []byte, epoch uint64, ops []Op) []byte {
	frame := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched below
	start := len(dst)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		dst = binary.AppendUvarint(dst, uint64(op.RelID))
		dst = binary.AppendVarint(dst, op.Mult)
		dst = binary.AppendUvarint(dst, uint64(len(op.Row)))
		for _, v := range op.Row {
			dst = binary.AppendVarint(dst, v)
		}
	}
	payload := dst[start:]
	binary.LittleEndian.PutUint32(dst[frame:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[frame+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// DecodeRecord decodes the record framed at the start of data, returning it
// and the number of bytes consumed. len(data) == 0 means "no record" (nil
// error, n == 0). An incomplete frame returns an error matching neither
// *CorruptLogError nor nil (a torn tail — see IsShort); a complete frame with
// a bad checksum or malformed payload returns a *CorruptLogError whose Offset
// is relative to data.
func DecodeRecord(data []byte) (rec Record, n int, err error) {
	if len(data) == 0 {
		return Record{}, 0, nil
	}
	if len(data) < recordHeaderSize {
		return Record{}, 0, &errShortRecord{have: len(data), want: recordHeaderSize}
	}
	plen := int(binary.LittleEndian.Uint32(data))
	if plen > MaxRecordBytes {
		return Record{}, 0, &CorruptLogError{Offset: 0, Reason: fmt.Sprintf("record length %d exceeds the %d-byte bound", plen, MaxRecordBytes)}
	}
	if len(data) < recordHeaderSize+plen {
		return Record{}, 0, &errShortRecord{have: len(data), want: recordHeaderSize + plen}
	}
	payload := data[recordHeaderSize : recordHeaderSize+plen]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[4:]); got != want {
		return Record{}, 0, &CorruptLogError{Offset: 0, Reason: fmt.Sprintf("record checksum mismatch: computed %08x, stored %08x", got, want)}
	}
	rec, err = decodePayload(payload)
	if err != nil {
		if ce, ok := err.(*CorruptLogError); ok {
			ce.Offset += recordHeaderSize // payload-relative → frame-relative
		}
		return Record{}, 0, err
	}
	return rec, recordHeaderSize + plen, nil
}

// decodePayload decodes a checksum-verified record payload. Allocation is
// bounded by the payload length: ops and rows grow by append, so a
// malicious count field cannot reserve more memory than the payload could
// ever describe.
func decodePayload(p []byte) (Record, error) {
	var rec Record
	var off int
	epoch, n := binary.Uvarint(p)
	if n <= 0 {
		return rec, &CorruptLogError{Offset: int64(off), Reason: "bad epoch varint"}
	}
	rec.Epoch = epoch
	off += n
	nOps, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return rec, &CorruptLogError{Offset: int64(off), Reason: "bad op-count varint"}
	}
	off += n
	for i := uint64(0); i < nOps; i++ {
		var op Op
		relID, n := binary.Uvarint(p[off:])
		if n <= 0 || relID == 0 || relID > uint64(MaxRecordBytes) {
			return rec, &CorruptLogError{Offset: int64(off), Reason: fmt.Sprintf("op %d: bad relation id", i)}
		}
		op.RelID = int(relID)
		off += n
		mult, n := binary.Varint(p[off:])
		if n <= 0 {
			return rec, &CorruptLogError{Offset: int64(off), Reason: fmt.Sprintf("op %d: bad multiplicity varint", i)}
		}
		op.Mult = mult
		off += n
		rowLen, n := binary.Uvarint(p[off:])
		if n <= 0 || rowLen > uint64(len(p)-off) {
			return rec, &CorruptLogError{Offset: int64(off), Reason: fmt.Sprintf("op %d: bad row length", i)}
		}
		off += n
		op.Row = make([]int64, 0, rowLen)
		for j := uint64(0); j < rowLen; j++ {
			v, n := binary.Varint(p[off:])
			if n <= 0 {
				return rec, &CorruptLogError{Offset: int64(off), Reason: fmt.Sprintf("op %d: bad value varint", i)}
			}
			op.Row = append(op.Row, v)
			off += n
		}
		rec.Ops = append(rec.Ops, op)
	}
	if off != len(p) {
		return rec, &CorruptLogError{Offset: int64(off), Reason: fmt.Sprintf("%d trailing bytes after the last op", len(p)-off)}
	}
	return rec, nil
}

// SegmentData is the decoded content of one segment file.
type SegmentData struct {
	// FirstEpoch is the header's first-epoch field: the lowest epoch the
	// segment may contain.
	FirstEpoch uint64
	// Records are the intact records, in file order.
	Records []Record
	// Good is the byte offset just past the last intact record — the
	// truncation point if the remainder is a torn tail.
	Good int64
	// Tail describes why decoding stopped before the end of the file: nil
	// when the file ends exactly at Good, an incomplete-frame error for a
	// torn write, a *CorruptLogError for a checksum or encoding violation.
	Tail error
	// TailEndsFile reports whether the bad frame reaches the end of the
	// file — the necessary condition for it to be a torn write rather than
	// mid-file corruption.
	TailEndsFile bool
}

// ReadSegmentFS reads and decodes one segment file through fs. Decoding
// stops at the first bad record; the error is reported in SegmentData.Tail
// rather than returned, because whether it condemns the log depends on
// context the caller has (is this the final segment? does intact data
// follow?). A missing or malformed header is returned as a *CorruptLogError.
func ReadSegmentFS(fs VFS, path string) (*SegmentData, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < segmentHeaderSize || string(data[:len(segmentMagic)]) != segmentMagic {
		return nil, &CorruptLogError{Path: path, Reason: "missing segment header"}
	}
	sd := &SegmentData{
		FirstEpoch: binary.LittleEndian.Uint64(data[len(segmentMagic):]),
		Good:       int64(segmentHeaderSize),
	}
	off := segmentHeaderSize
	for off < len(data) {
		rec, n, err := DecodeRecord(data[off:])
		if err != nil {
			if ce, ok := err.(*CorruptLogError); ok {
				ce.Path = path
				ce.Offset += int64(off)
				// A checksum failure on a frame that ends exactly at EOF is
				// indistinguishable from a torn write that got the length down
				// but not the payload; report where the frame ends so the
				// caller can apply the torn-tail rule.
				plen := int(binary.LittleEndian.Uint32(data[off:]))
				sd.TailEndsFile = off+recordHeaderSize+plen >= len(data)
			} else {
				sd.TailEndsFile = true // incomplete frame: by definition it hits EOF
			}
			sd.Tail = err
			return sd, nil
		}
		sd.Records = append(sd.Records, rec)
		off += n
		sd.Good = int64(off)
	}
	return sd, nil
}
