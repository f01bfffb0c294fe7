package server

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
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
	if ls := limitParam(r.URL.RawQuery); ls != "" {
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
	fw := newFrameWriter(w, &s.metrics.readWriteTimeouts)
	defer fw.release()
	if count := fw.streamRows(rs, view, rows, limit); count >= 0 {
		fw.sendFrame(Frame{Type: FrameReady, Epoch: snap.Epoch(), Count: count})
	}
}

// limitParam returns the limit parameter of the query rawQuery as
// url.Values.Get returns it, without parsing the query into a map when it is
// just "limit=" and digits.
func limitParam(rawQuery string) string {
	if v, ok := strings.CutPrefix(rawQuery, "limit="); ok && strings.Trim(v, "0123456789") == "" {
		return v
	}
	if rawQuery == "" {
		return ""
	}
	q, _ := url.ParseQuery(rawQuery)
	return q.Get("limit")
}

// ended reports whether the read stream has ended; one ended by eviction
// first gets its terminal gone frame.
func (rs *readStream) ended(fw *frameWriter) bool {
	if rs.ctx.Err() == nil {
		return false
	}
	if errors.Is(context.Cause(rs.ctx), errEvicted) {
		fw.sendFrame(Frame{Type: FrameError, Err: &WireError{Code: CodeGone,
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
// frame's arrays are refilled by the next one, and the next stream of the
// pooled writer refills them again. The loop body is the pager's row method,
// bound once per writer: a closure handed to rows would cost a heap
// allocation, and so would each local it writes, on every stream.
func (fw *frameWriter) streamRows(rs *readStream, view string, rows iter.Seq2[[]int64, int64], limit int) int {
	p := &fw.page
	if p.yield == nil {
		p.fw, p.yield = fw, p.row
	}
	p.rs, p.limit, p.count = rs, limit, 0
	p.f = Frame{Type: FrameRows, View: view, Rows: p.f.Rows[:0], Mults: p.f.Mults[:0]}
	p.vals = p.vals[:0]
	rows(p.yield)
	if p.count >= 0 && len(p.f.Rows) > 0 {
		p.flush()
	}
	p.rs = nil
	return p.count
}

// pager is streamRows' state, kept in its frameWriter.
type pager struct {
	fw    *frameWriter
	yield func([]int64, int64) bool // row, bound to this pager
	rs    *readStream
	limit int
	count int
	f     Frame
	vals  []int64 // the values of f.Rows
}

// row copies one row into the page, and sends the page once it holds limit
// rows. A page starts with room for limit rows of row's arity.
func (p *pager) row(row []int64, mult int64) bool {
	if len(p.f.Rows) == 0 && (cap(p.vals) < p.limit*len(row) || cap(p.f.Rows) < p.limit) {
		p.vals = make([]int64, 0, p.limit*len(row))
		p.f.Rows, p.f.Mults = make([][]int64, 0, p.limit), make([]int64, 0, p.limit)
	}
	p.vals = append(p.vals, row...)
	p.f.Rows = append(p.f.Rows, p.vals[len(p.vals)-len(row):len(p.vals):len(p.vals)])
	p.f.Mults = append(p.f.Mults, mult)
	if len(p.f.Rows) < p.limit {
		return true
	}
	p.flush()
	return p.count >= 0
}

// flush sends the page, or sets count to -1 when the stream ended or the
// frame did not go out.
func (p *pager) flush() {
	if p.rs != nil && p.rs.ended(p.fw) || !p.fw.send(&p.f) {
		p.count = -1
		return
	}
	p.count += len(p.f.Rows)
	p.f.Rows, p.f.Mults, p.vals = p.f.Rows[:0], p.f.Mults[:0], p.vals[:0]
}
