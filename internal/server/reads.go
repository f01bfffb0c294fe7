package server

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// Reads. GET /v1/result/rows and GET /v1/views/{view}/rows answer with one
// NDJSON stream read from one engine snapshot:
//
//	rows frame* → ready frame (epoch, count)
//
// The query-result read ranges over the snapshot's iterator and writes a
// rows frame every ?limit= rows, so its first row is on the wire after one
// frame's worth of enumeration, and every row of the read observes one
// committed epoch however many commits land meanwhile — the writer is never
// blocked, it copy-on-writes around the pin. A view read ranges over its
// view (ViewAll) the same way and holds its snapshot as long. One loop,
// streamRows, writes the frames of both reads and of the watch anchor's
// dump. A stream ends with its closing frame, with a frame write that
// misses watchWriteTimeout (a peer that stopped reading), when the client
// goes away, or — when maxReaders streams are open and another one starts —
// as the oldest, with a terminal "gone" error frame at its next frame
// boundary. The handler then returns and the snapshot is released.

// errEvicted is the cancellation cause of a read stream ended to make room
// for a newer one.
var errEvicted = errors.New("read evicted by a newer one")

// readStream is one open read. Its context ends when the client goes away,
// when the handler returns, or with errEvicted.
type readStream struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
}

// readStreams is the registry of open read streams, oldest first. A stream
// stays registered until its handler returns — an ended one until its last
// write returns or misses its deadline — so the count is the reads that
// hold a connection and a snapshot.
type readStreams struct {
	mu   sync.Mutex
	open []*readStream
}

// add registers a read stream under the request's context and, when
// maxReaders streams are registered, ends the oldest one not already ending.
func (t *readStreams) add(parent context.Context) *readStream {
	ctx, cancel := context.WithCancelCause(parent)
	rs := &readStream{ctx: ctx, cancel: cancel}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.open) >= maxReaders {
		for _, o := range t.open {
			if o.ctx.Err() == nil {
				o.cancel(errEvicted)
				break
			}
		}
	}
	t.open = append(t.open, rs)
	return rs
}

// remove unregisters a stream whose handler is returning.
func (t *readStreams) remove(rs *readStream) {
	rs.cancel(nil)
	t.mu.Lock()
	defer t.mu.Unlock()
	i := slices.Index(t.open, rs)
	t.open = slices.Delete(t.open, i, i+1)
}

// count reports the number of open read streams (for /v1/stats and
// /metrics).
func (t *readStreams) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open)
}

// handleRows streams one read; view "" is the query result.
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request, view string) {
	limit := pageSize
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			s.fail(w, epRows, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("bad limit %q", ls)})
			return
		}
		limit = min(n, maxPageSize)
	}

	snap, err := s.eng.Snapshot()
	if err != nil {
		s.fail(w, epRows, err)
		return
	}
	defer snap.Close()
	rows := snap.All()
	if view != "" {
		if rows, err = snap.ViewAll(view); err != nil {
			s.fail(w, epRows, &WireError{Code: CodeUnknownView, Message: err.Error()})
			return
		}
	}
	rs := s.readers.add(r.Context())
	defer s.readers.remove(rs)

	s.metrics.hit(epRows, http.StatusOK)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(HeaderEpoch, strconv.FormatUint(snap.Epoch(), 10))
	w.WriteHeader(http.StatusOK)
	send := frameWriter(w, &s.metrics.readWriteTimeouts)
	if count := streamRows(send, rs, view, rows, limit); count >= 0 {
		send(&Frame{Type: FrameReady, Epoch: snap.Epoch(), Count: count})
	}
}

// ended reports whether the read stream has ended; one ended by eviction
// first gets its terminal gone frame.
func (rs *readStream) ended(send func(*Frame) bool) bool {
	if rs.ctx.Err() == nil {
		return false
	}
	if errors.Is(context.Cause(rs.ctx), errEvicted) {
		send(&Frame{Type: FrameError, Err: &WireError{Code: CodeGone,
			Message: fmt.Sprintf("more than %d reads open: the oldest was ended; restart the read", maxReaders)}})
	}
	return true
}

// streamRows is the one frame loop of every stream: it writes rows as rows
// frames of at most limit rows, labelled view, and returns how many rows it
// sent, or -1 when a frame did not go out or rs — checked before every
// frame, nil for the watch anchor's dump — ended. Yielded rows may alias
// engine storage or reused buffers, so each is copied before the next pull,
// into one backing array whose sub-slices are the frame's rows; a sent
// frame's arrays are refilled by the next one. Failure rides in count, not
// in a flag or a result of its own: the loop body is a closure handed to
// rows, so each local it writes costs one heap allocation per stream.
func streamRows(send func(*Frame) bool, rs *readStream, view string, rows iter.Seq2[[]int64, int64], limit int) int {
	f := Frame{Type: FrameRows, View: view}
	var vals []int64
	count := 0
	flush := func() {
		if rs != nil && rs.ended(send) || !send(&f) {
			count = -1
			return
		}
		count += len(f.Rows)
		f.Rows, f.Mults, vals = f.Rows[:0], f.Mults[:0], vals[:0]
	}
	for row, mult := range rows {
		if vals == nil {
			vals = make([]int64, 0, limit*len(row))
			f.Rows, f.Mults = make(RowBlock, 0, limit), make([]int64, 0, limit)
		}
		vals = append(vals, row...)
		f.Rows = append(f.Rows, vals[len(vals)-len(row):len(vals):len(vals)])
		f.Mults = append(f.Mults, mult)
		if len(f.Rows) == limit {
			if flush(); count < 0 {
				break
			}
		}
	}
	if count >= 0 && len(f.Rows) > 0 {
		flush()
	}
	return count
}
