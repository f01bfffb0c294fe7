package server

import (
	"encoding/json"
	"io"
	"testing"
	"time"
)

// SetWatchWriteTimeout shortens the per-frame write deadline of watch and
// read streams for one test and restores it when the test ends.
func SetWatchWriteTimeout(t *testing.T, d time.Duration) {
	old := watchWriteTimeout
	watchWriteTimeout = d
	t.Cleanup(func() { watchWriteTimeout = old })
}

// OpenReaders counts the open read streams the way /v1/stats and /metrics
// do.
func OpenReaders(s *Server) int { return s.readers.count() }

// MaxReaders is the cap on open read streams.
const MaxReaders = maxReaders

// PageSize is the rows per frame of a read without ?limit and of the watch
// anchor's dump.
const PageSize = pageSize

// ChunkSize is the size of the chunks a stream's queued rows frames are
// written in.
const ChunkSize = chunkSize

// FreeChunks counts the chunks on the server's free list.
func FreeChunks(s *Server) int { return len(s.chunks) }

// EvictOldestRead evicts the oldest open read not already ending, as a read
// opened past MaxReaders does.
func EvictOldestRead(s *Server) {
	s.readers.mu.Lock()
	defer s.readers.mu.Unlock()
	s.readers.evictOldest()
}

// EncodeRowsFrame returns the line the frame writer writes for f, a rows
// frame, newline included.
var EncodeRowsFrame = EncodeFrame

// DecodeRowsFrame is decodeRowsFrame, the FrameReader's rows-frame path.
var DecodeRowsFrame = decodeRowsFrame

// EncodeFrame returns the line the frame writer writes for f, newline
// included.
func EncodeFrame(f *Frame) []byte { return appendFrame(nil, f) }

// DecodeReadyFrame is decodeReadyFrame, the FrameReader's ready-frame path.
var DecodeReadyFrame = decodeReadyFrame

// DecodeEventFrame is decodeEventFrame, the FrameReader's event-frame path.
var DecodeEventFrame = decodeEventFrame

// DecodeOp decodes line, one op line without its newline, through DecodeOps'
// fast path alone; ok is false where the fast path declines the line.
func DecodeOp(line []byte) (op Op, ok bool) {
	count := rowScan{data: line}
	if !count.decodeOp(&op) || count.i != len(line) {
		return Op{}, false
	}
	var names []string
	fill := rowScan{data: line, vals: make([]int64, count.nVals), names: &names}
	fill.decodeOp(&op)
	return op, true
}

// DecodeOpsJSON decodes an op stream as DecodeOps does, through encoding/json
// alone.
func DecodeOpsJSON(r io.Reader, maxOps int) ([]Op, error) {
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	ops, _, err := decodeOpsJSON(json.NewDecoder(r), nil, maxOps)
	return ops, err
}
