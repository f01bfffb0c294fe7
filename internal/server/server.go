package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ivmeps"
)

// Options configures a Server. The zero value is usable.
type Options struct {
	// Query is the served query's text, echoed by /v1/stats. Informational.
	Query string
}

// The service's fixed limits. Every one bounds what a single request can
// make the server hold or do.
const (
	// pageSize is the rows per frame of a read without ?limit and of the
	// watch anchor's dump, and maxPageSize caps ?limit.
	pageSize    = 512
	maxPageSize = 8192
	// maxReaders caps concurrently open read streams; opening one more ends
	// the oldest with a "gone" frame.
	maxReaders = 128
	// maxCommitBytes bounds a commit request body (its op count is bounded
	// by DefaultMaxOps).
	maxCommitBytes = 64 << 20
	// maxWatchBuffer caps ?buffer, the per-stream event ring in commits: the
	// ring is allocated up front, eight bytes a slot, per request.
	maxWatchBuffer = 1 << 16
)

// watchWriteTimeout bounds the write of one frame of a watch or read stream:
// a stream whose peer takes no bytes for this long is closed. A variable
// only so a test can shorten it.
var watchWriteTimeout = 10 * time.Second

// Server is the HTTP query service over one built engine. It implements
// http.Handler; mount it directly or under a prefix. The engine must have
// been Built; the server is its only writer (commits are serialized
// internally — the engine is single-writer), while reads and watch streams
// run concurrently on snapshots and never block a commit.
type Server struct {
	eng     *ivmeps.Engine
	opts    Options
	mux     *http.ServeMux
	metrics metrics
	readers readStreams

	commitMu sync.Mutex    // serializes POST /v1/commit onto the single-writer engine
	batch    *ivmeps.Batch // reused under commitMu

	drainOnce sync.Once
	drainCh   chan struct{} // closed by Drain
}

// New wraps a built engine. The caller keeps ownership of the engine's
// lifetime: Drain the server, shut the http.Server down, then Close the
// engine (cmd/ivmd wires this order up behind SIGTERM).
func New(eng *ivmeps.Engine, opts Options) *Server {
	s := &Server{
		eng:     eng,
		opts:    opts,
		mux:     http.NewServeMux(),
		batch:   eng.NewBatch(),
		drainCh: make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/commit", s.handleCommit)
	s.mux.HandleFunc("GET /v1/result/rows", func(w http.ResponseWriter, r *http.Request) {
		s.handleRows(w, r, "")
	})
	s.mux.HandleFunc("GET /v1/views/{view}/rows", func(w http.ResponseWriter, r *http.Request) {
		s.handleRows(w, r, r.PathValue("view"))
	})
	s.mux.HandleFunc("GET /v1/watch", s.handleWatch)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP dispatches to the service endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain begins an orderly shutdown: /healthz flips to 503, new commits and
// new watch streams are refused with CodeDraining, and every live watch
// stream is ended with a terminal "end" frame after the events already
// committed — no stream is just dropped. In-flight commits and reads run
// to completion (http.Server.Shutdown waits for them). Drain is
// idempotent and returns immediately; it does not wait for the streams to
// finish writing.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// reply writes a JSON response body.
func (s *Server) reply(w http.ResponseWriter, ep endpoint, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
	s.metrics.hit(ep, status)
}

// fail writes a wire-error response.
func (s *Server) fail(w http.ResponseWriter, ep endpoint, err error) {
	we := EncodeError(err)
	status := HTTPStatus(we.Code)
	s.reply(w, ep, status, struct {
		Error *WireError `json:"error"`
	}{we})
}

// frameWriter returns the send function of one NDJSON stream, watch or read.
// Every frame is written and flushed under its own deadline, and a failed
// write ends the stream: a peer that stopped reading would otherwise park
// the handler in Write, with its connection and whatever it holds, until TCP
// gives up. A deadline that runs out is counted in timeouts. A writer
// without deadlines (tests) just has none.
func frameWriter(w http.ResponseWriter, timeouts *atomic.Uint64) func(*Frame) bool {
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w) // Encode appends '\n': one compact frame per line
	return func(f *Frame) bool {
		rc.SetWriteDeadline(time.Now().Add(watchWriteTimeout))
		err := enc.Encode(f)
		if err == nil {
			err = rc.Flush()
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			timeouts.Add(1)
		}
		return err == nil
	}
}

// handleCommit applies one NDJSON op stream as one atomic engine commit
// and reports the epoch it published. The engine is single-writer, so
// concurrent commit requests serialize on commitMu; everything before the
// engine call (decode, batch assembly) and after it (response encoding)
// runs outside the critical section except the batch fill itself, which
// reuses one pooled builder.
func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.fail(w, epCommit, &WireError{Code: CodeDraining, Message: "server is draining"})
		return
	}
	ops, err := DecodeOps(http.MaxBytesReader(w, r.Body, maxCommitBytes), DefaultMaxOps)
	if err != nil {
		s.fail(w, epCommit, err)
		return
	}

	start := time.Now()
	s.commitMu.Lock()
	s.batch.Reset()
	for i := range ops {
		s.batch.Apply(ops[i].Rel, ops[i].Row, ops[i].Mult)
	}
	err = s.eng.Commit(s.batch)
	s.batch.Reset() // drop row references before releasing the lock
	var epoch uint64
	if err == nil {
		epoch = s.eng.Epoch()
	}
	s.commitMu.Unlock()

	if err != nil {
		s.metrics.commitsFailed.Add(1)
		s.fail(w, epCommit, err)
		return
	}
	s.metrics.commitsOK.Add(1)
	s.metrics.observeCommit(time.Since(start))
	w.Header().Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
	s.reply(w, epCommit, http.StatusOK, &CommitReply{Epoch: epoch, Ops: len(ops)})
}

// handleStats reports engine counters, epoch, and server gauges.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.reply(w, epStats, http.StatusOK, &StatsReply{
		Query:    s.opts.Query,
		Epoch:    s.eng.Epoch(),
		N:        s.eng.N(),
		Views:    s.eng.Views(),
		Watchers: s.metrics.watchers.Load(),
		Readers:  s.readers.count(),
		Draining: s.Draining(),
		Engine:   s.eng.Stats(),
	})
}

// handleHealth is the liveness probe: 200 while serving, 503 once
// draining (load balancers stop routing before the listener closes).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		s.metrics.hit(epHealth, http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
	s.metrics.hit(epHealth, http.StatusOK)
}
