package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"ivmeps"
)

// Watch streaming. GET /v1/watch holds the connection open and writes one
// NDJSON frame per engine commit, riding Engine.Watch: the engine's
// subscription is anchored at a snapshot captured atomically with the
// registration, so the stream is gap-free from its anchor. The stream
// opens with the anchor:
//
//	anchor frame → rows frames (the anchor state, by view) → ready frame
//
// unless the client presented ?from_epoch equal to the anchor epoch — then
// the dump is skipped (anchor frame carries resume:true) and the client
// keeps folding its existing state with no gap and no overlap. A
// from_epoch older than the anchor cannot be bridged (the engine keeps no
// delta history), so the server sends the full dump and the client
// replaces its state: still gap-free, by reset rather than replay. A
// from_epoch newer than the anchor is refused (CodeEpochAhead).
//
// After "ready" every commit yields one event frame, consecutive epochs,
// empty deltas included. The stream ends three ways: a "lagged" frame
// (this consumer fell further behind than its buffer; the exact missed
// epochs are named, mirroring ivmeps.WatcherLaggedError), an "end" frame
// (server drain — orderly, nothing lost), or an unadorned connection drop
// (the client went away, stopped reading for watchWriteTimeout, or the
// process died).

// handleWatch streams commit deltas as chunked NDJSON.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.fail(w, epWatch, &WireError{Code: CodeDraining, Message: "server is draining"})
		return
	}
	q := r.URL.Query()
	// Each view is named and dumped once, in first-seen order.
	var views []string
	if vs := q.Get("views"); vs != "" {
		seen := make(map[string]bool)
		for _, v := range strings.Split(vs, ",") {
			if !seen[v] {
				seen[v] = true
				views = append(views, v)
			}
		}
	}
	buffer := 0 // the engine's DefaultWatchBuffer
	if bs := q.Get("buffer"); bs != "" {
		n, err := strconv.Atoi(bs)
		if err != nil || n < 0 || n > maxWatchBuffer {
			s.fail(w, epWatch, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("bad buffer %q (0 to %d)", bs, maxWatchBuffer)})
			return
		}
		buffer = n
	}
	var fromEpoch uint64
	fromSet := false
	if fs := q.Get("from_epoch"); fs != "" {
		n, err := strconv.ParseUint(fs, 10, 64)
		if err != nil {
			s.fail(w, epWatch, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("bad from_epoch %q", fs)})
			return
		}
		fromEpoch, fromSet = n, true
	}

	wat, err := s.eng.Watch(ivmeps.WatchOptions{Views: views, Buffer: buffer})
	if err != nil {
		if views != nil && !errors.Is(err, ivmeps.ErrNotBuilt) {
			err = &WireError{Code: CodeUnknownView, Message: err.Error()}
		}
		s.fail(w, epWatch, err)
		return
	}
	defer wat.Close()
	anchor := wat.Snapshot()

	if fromSet && fromEpoch > anchor.Epoch() {
		anchor.Close()
		s.fail(w, epWatch, &WireError{Code: CodeEpochAhead,
			Message: fmt.Sprintf("from_epoch %d is ahead of the committed epoch %d", fromEpoch, anchor.Epoch())})
		return
	}

	s.metrics.hit(epWatch, http.StatusOK)
	s.metrics.watchers.Add(1)
	defer s.metrics.watchers.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(HeaderEpoch, strconv.FormatUint(anchor.Epoch(), 10))
	w.WriteHeader(http.StatusOK)
	send := frameWriter(w, &s.metrics.watchWriteTimeouts)

	if !s.sendAnchor(send, anchor, fromSet && fromEpoch == anchor.Epoch(), views) {
		return
	}

	// The event loop writes from this goroutine only; the closer goroutine
	// just makes a blocked Events iteration return — on client disconnect,
	// on drain, or when the handler exits.
	done := make(chan struct{})
	defer close(done)
	var drained atomic.Bool
	go func() {
		select {
		case <-r.Context().Done():
		case <-s.drainCh:
			drained.Store(true)
		case <-done:
		}
		wat.Close()
	}()

	for ev, err := range wat.Events() {
		if err != nil {
			var wle *ivmeps.WatcherLaggedError
			if errors.As(err, &wle) {
				s.metrics.watchEvicted.Add(1)
				send(&Frame{Type: FrameLagged, From: wle.From, To: wle.To})
			} else {
				send(&Frame{Type: FrameError, Err: EncodeError(err)})
			}
			return
		}
		if !send(&Frame{Type: FrameEvent, Epoch: ev.Epoch, Deltas: ev.Deltas}) {
			return
		}
	}
	// Events ended silently: the watcher was closed. If that was the drain
	// path, tell the client the stream ended on purpose with nothing lost.
	if drained.Load() {
		s.metrics.watchDrained.Add(1)
		send(&Frame{Type: FrameEnd, Epoch: s.eng.Epoch(), Reason: "draining"})
	}
}

// sendAnchor writes the stream opening: the anchor frame and, unless the
// client resumed at exactly the anchor epoch, the state dump of every
// subscribed view in rows frames of at most pageSize rows, then the ready
// frame. It closes the anchor on every path, and before the ready frame goes
// out: a client may commit the moment it reads "ready", and a commit that
// finds the anchor still pinned copies every relation it writes.
func (s *Server) sendAnchor(send func(*Frame) bool, anchor *ivmeps.Snapshot, resume bool, views []string) bool {
	defer anchor.Close() // idempotent: the failure paths' release
	epoch := anchor.Epoch()
	if views == nil {
		views = s.eng.Views()
	}
	if !send(&Frame{Type: FrameAnchor, Epoch: epoch, Views: views, Resume: resume}) {
		return false
	}
	if !resume {
		for _, v := range views {
			rows, err := anchor.ViewAll(v)
			if err != nil {
				send(&Frame{Type: FrameError, Err: EncodeError(err)})
				return false
			}
			// An empty view still gets one rows frame, so the client's anchor
			// map lists every subscribed view explicitly.
			if n := streamRows(send, nil, v, rows, pageSize); n < 0 || n == 0 && !send(&Frame{Type: FrameRows, View: v}) {
				return false
			}
		}
	}
	anchor.Close()
	return send(&Frame{Type: FrameReady, Epoch: epoch})
}
