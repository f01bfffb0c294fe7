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
// blocked, it copy-on-writes around the pin. A view read copies its view
// (ViewRows) and releases the pin before its first frame. A stream ends with
// its closing frame, with a frame write that misses watchWriteTimeout (a
// peer that stopped reading), when the client goes away, or — when
// maxReaders streams are open and another one starts — as the oldest, with a
// terminal "gone" error frame at its next frame boundary. The handler then
// returns and the snapshot is released.

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
// hold a connection and, for a result read, a snapshot.
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
	epoch := snap.Epoch()
	var rows iter.Seq2[[]int64, int64]
	if view == "" {
		rows = snap.All()
	} else {
		vrows, vmults, err := snap.ViewRows(view)
		snap.Close()
		if err != nil {
			s.fail(w, epRows, &WireError{Code: CodeUnknownView, Message: err.Error()})
			return
		}
		rows = func(yield func([]int64, int64) bool) {
			for i := range vrows {
				if !yield(vrows[i], vmults[i]) {
					return
				}
			}
		}
	}
	rs := s.readers.add(r.Context())
	defer s.readers.remove(rs)

	s.metrics.hit(epRows, http.StatusOK)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
	w.WriteHeader(http.StatusOK)
	send := frameWriter(w, &s.metrics.readWriteTimeouts)

	// Yielded rows may alias engine-reused buffers, so each is copied before
	// the next pull — into one backing array whose sub-slices are the frame's
	// rows. A sent frame's arrays are refilled by the next one.
	f := Frame{Type: FrameRows, View: view}
	var vals []int64
	count := 0
	flush := func() bool {
		if rs.ctx.Err() != nil {
			if errors.Is(context.Cause(rs.ctx), errEvicted) {
				send(&Frame{Type: FrameError, Err: &WireError{Code: CodeGone,
					Message: fmt.Sprintf("more than %d reads open: the oldest was ended; restart the read", maxReaders)}})
			}
			return false
		}
		count += len(f.Rows)
		ok := send(&f)
		f.Rows, f.Mults, vals = f.Rows[:0], f.Mults[:0], vals[:0]
		return ok
	}
	for row, mult := range rows {
		if vals == nil {
			vals = make([]int64, 0, limit*len(row))
			f.Rows, f.Mults = make(RowBlock, 0, limit), make([]int64, 0, limit)
		}
		vals = append(vals, row...)
		f.Rows = append(f.Rows, vals[len(vals)-len(row):len(vals):len(vals)])
		f.Mults = append(f.Mults, mult)
		if len(f.Rows) == limit && !flush() {
			return
		}
	}
	if len(f.Rows) > 0 && !flush() {
		return
	}
	send(&Frame{Type: FrameReady, Epoch: epoch, Count: count})
}
