package server

import (
	"context"
	"fmt"
	"iter"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
// dump. A stream ends with its closing frame, with a write that
// misses watchWriteTimeout (a peer that stopped reading), when the client
// goes away, or — when maxReaders streams are open and another one starts —
// as the oldest, with a terminal "gone" error frame at its next frame
// boundary. The handler then returns and the snapshot is released.

// readEntry is a read stream's place in the registry, kept in its
// frameWriter: the request's context, which ends when the client goes away,
// and the flag a newer read sets to evict it.
type readEntry struct {
	ctx     context.Context
	evicted atomic.Bool
}

// readStreams is the registry of open read streams, oldest first. A stream
// stays registered until its handler returns — an ended one until its last
// write returns or misses its deadline — so the count is the reads that
// hold a connection and a snapshot.
type readStreams struct {
	mu   sync.Mutex
	open []*readEntry
}

// add registers e as a read stream under the request's context ctx and,
// when maxReaders streams are registered, evicts the oldest one not already
// ending.
func (t *readStreams) add(e *readEntry, ctx context.Context) {
	e.ctx = ctx
	e.evicted.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.open) >= maxReaders {
		t.evictOldest()
	}
	t.open = append(t.open, e)
}

// evictOldest flags the oldest stream not already ending. t.mu must be held.
func (t *readStreams) evictOldest() {
	for _, o := range t.open {
		if o.ctx.Err() == nil && !o.evicted.Load() {
			o.evicted.Store(true)
			return
		}
	}
}

// remove unregisters e, whose handler is returning. Its writer goes back to
// the pool only afterwards, so no later add can flag the writer's next read.
func (t *readStreams) remove(e *readEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := slices.Index(t.open, e)
	t.open = slices.Delete(t.open, i, i+1)
	e.ctx = nil
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
	fw := newFrameWriter(w, &s.metrics.readWriteTimeouts, s.chunks)
	defer fw.release()
	s.readers.add(&fw.read, r.Context())
	defer s.readers.remove(&fw.read) // before release

	s.metrics.hit(epRows, http.StatusOK)
	w.Header()["Content-Type"] = ndjsonContent
	w.Header().Set(HeaderEpoch, strconv.FormatUint(snap.Epoch(), 10))
	w.WriteHeader(http.StatusOK)
	if count := fw.streamRows(&fw.read, view, rows, limit); count >= 0 {
		fw.put(&Frame{Type: FrameReady, Epoch: snap.Epoch(), Count: count})
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

// ended reports whether the read stream has ended; one evicted by a newer
// read first gets its terminal gone frame.
func (e *readEntry) ended(fw *frameWriter) bool {
	if e.evicted.Load() {
		fw.put(&Frame{Type: FrameError, Err: &WireError{Code: CodeGone,
			Message: fmt.Sprintf("more than %d reads open: the oldest was ended; restart the read", maxReaders)}})
		return true
	}
	return e.ctx.Err() != nil
}

// streamRows is the one frame loop of every stream: it writes rows as rows
// frames of at most limit rows, labelled view, and returns how many rows it
// sent, or -1 when a frame did not go out or the read rs — checked before
// every frame, nil for the watch anchor's dump — ended. Each frame goes
// through frameWriter.put, which writes the stream's first alone and queues
// the others. Yielded rows may alias engine storage or reused buffers, so
// each is copied before the next pull, into one backing array whose
// sub-slices are the frame's rows; a sent frame's arrays are refilled by the
// next one, and the next stream of the pooled writer refills them again. The
// loop body is the pager's row method, bound once per writer: a closure
// handed to rows would cost a heap allocation, and so would each local it
// writes, on every stream.
func (fw *frameWriter) streamRows(rs *readEntry, view string, rows iter.Seq2[[]int64, int64], limit int) int {
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
	rs    *readEntry
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

// flush queues the page, or sets count to -1 when the stream ended or a
// write failed.
func (p *pager) flush() {
	if p.rs != nil && p.rs.ended(p.fw) || !p.fw.put(&p.f) {
		p.count = -1
		return
	}
	p.count += len(p.f.Rows)
	p.f.Rows, p.f.Mults, p.vals = p.f.Rows[:0], p.f.Mults[:0], p.vals[:0]
}
