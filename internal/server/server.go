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
	chunks  chunkPool

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
		chunks:  make(chunkPool, maxReaders),
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

// The Content-Type values of the service's responses, assigned to a
// response's header map as they are: Header().Set would allocate the slice
// for every response.
var (
	jsonContent    = []string{"application/json"}
	ndjsonContent  = []string{"application/x-ndjson"}
	metricsContent = []string{"text/plain; version=0.0.4; charset=utf-8"}
)

// reply writes a JSON response body.
func (s *Server) reply(w http.ResponseWriter, ep endpoint, status int, body any) {
	w.Header()["Content-Type"] = jsonContent
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

// frameWriter writes one NDJSON stream, watch or read. Every write has its
// own deadline, and a failed write ends the stream: a peer that stopped
// reading would otherwise park the handler in Write, with its connection and
// whatever it holds, until TCP gives up. A deadline that runs out is counted
// in timeouts. A writer without deadlines (tests) just has none. Every frame
// goes out through put, encoded into the writer's one buffer: later rows
// frames are queued in a chunk, written unflushed each time chunkSize bytes
// are queued, and every other frame — the stream's first, ready, an error,
// anchor, event, lagged or end — is written with whatever is queued and
// flushed, so a stream's first row is on the wire at once. Writers are
// pooled with their buffers, streamRows' pages and their place in the read
// registry.
type frameWriter struct {
	w        http.ResponseWriter
	rc       http.ResponseController
	timeouts *atomic.Uint64
	chunks   chunkPool
	buf      []byte           // the frame put last, appendFrame's line
	started  bool             // a frame was put: later rows frames are queued
	chunk    *[chunkSize]byte // held while frames are queued
	queued   int              // the bytes of chunk queued
	page     pager
	read     readEntry
}

var frameWriters = sync.Pool{New: func() any { return new(frameWriter) }}

// newFrameWriter takes a writer of the stream w from the pool; release
// returns it.
func newFrameWriter(w http.ResponseWriter, timeouts *atomic.Uint64, chunks chunkPool) *frameWriter {
	fw := frameWriters.Get().(*frameWriter)
	fw.w, fw.rc, fw.timeouts, fw.chunks = w, *http.NewResponseController(w), timeouts, chunks
	return fw
}

// release returns fw to the pool, and a chunk it still holds to its list,
// holding nothing of its stream. A read's entry must be out of the registry
// by then.
func (fw *frameWriter) release() {
	fw.chunks.put(fw.chunk)
	fw.w, fw.rc, fw.timeouts, fw.chunks = nil, http.ResponseController{}, nil, nil
	fw.started, fw.chunk, fw.queued = false, nil, 0
	frameWriters.Put(fw)
}

// chunkSize is the size of the chunks queued rows frames are written in.
// Each write is one HTTP chunk, whose length net/http boxes: one allocation
// a write. A larger chunk makes the peer wait longer, though, since it can
// decode no frame of a chunk before the chunk is written. A read of 65 000
// rows in 2 048-row frames of about 89 KB is about 16 writes at 192 KiB, the
// closing frame in the last, instead of 33 at one frame a write; svc-mixed's
// reads allocated 0.00152, 0.00142 and 0.00137 times a row at chunks of 128,
// 192 and 256 KiB, and streamed about 4 % and 5 % fewer rows a second at 192
// and 256 KiB than at one frame a write.
const chunkSize = 192 << 10

// chunkPool is a server's free list of chunks. A stream holds one only while
// it has rows frames queued, so a watcher's event loop holds none, and the
// list never keeps more chunks than streams queued rows at once, nor more
// than maxReaders. Unlike a sync.Pool it keeps them across garbage
// collections, which a server taking commits runs between most reads.
type chunkPool chan *[chunkSize]byte

// get takes a chunk from the list, or makes one.
func (p chunkPool) get() *[chunkSize]byte {
	select {
	case c := <-p:
		return c
	default:
		return new([chunkSize]byte)
	}
}

// put returns c, if not nil, to the list, unless the list is full.
func (p chunkPool) put(c *[chunkSize]byte) {
	if c == nil {
		return
	}
	select {
	case p <- c:
	default:
	}
}

// put writes f to the stream. A rows frame other than the stream's first is
// queued: copied into the writer's chunk, which is written, unflushed, once
// it is full and more bytes come, so a chunk may end inside a frame. Any
// other frame is queued too, and then what is queued is written and flushed
// and the chunk goes back to its list; with nothing queued, the frame is
// written and flushed straight from the writer's buffer, and takes no
// chunk. It reports whether every write went out.
func (fw *frameWriter) put(f *Frame) bool {
	fw.buf = appendFrame(fw.buf[:0], f)
	line := fw.buf
	flush := f.Type != FrameRows || !fw.started
	fw.started = true
	if flush && fw.chunk == nil {
		return fw.write(line, true)
	}
	if fw.chunk == nil {
		fw.chunk = fw.chunks.get()
	}
	for len(line) > 0 {
		if fw.queued == chunkSize {
			if !fw.write(fw.chunk[:], false) {
				return false
			}
			fw.queued = 0
		}
		n := copy(fw.chunk[fw.queued:], line)
		line, fw.queued = line[n:], fw.queued+n
	}
	if !flush {
		return true
	}
	ok := fw.write(fw.chunk[:fw.queued], true)
	fw.chunks.put(fw.chunk)
	fw.chunk, fw.queued = nil, 0
	return ok
}

// write writes p under a deadline of its own and, if flush is set, flushes
// it; it counts a deadline that ran out and reports whether p went out.
func (fw *frameWriter) write(p []byte, flush bool) bool {
	fw.rc.SetWriteDeadline(time.Now().Add(watchWriteTimeout))
	_, err := fw.w.Write(p)
	if err == nil && flush {
		err = fw.rc.Flush()
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		fw.timeouts.Add(1)
	}
	return err == nil
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
	ops, jsonOps, err := decodeOps(http.MaxBytesReader(w, r.Body, maxCommitBytes), DefaultMaxOps)
	s.metrics.commitOpsJSON.Add(uint64(jsonOps))
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
