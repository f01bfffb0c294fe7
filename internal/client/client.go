// Package client is the Go client for the ivmd query service
// (internal/server): it mirrors the engine surface — a Batch builder with
// Commit, Rows/All reads, and Watch returning the same iter.Seq2 event
// stream as ivmeps.Engine.Watch — so a caller can swap an in-process
// *ivmeps.Engine for a remote ivmd with local changes only at construction.
// Stdlib-only.
//
// Reads are epoch-consistent: one Rows or All call is one GET whose
// response streams the rows of one committed snapshot in frames, decoded as
// the caller's loop advances, and the observed epoch is returned so
// independent reads can be correlated. Every stream, read or watch, decodes
// through a server.FrameReader, into one reused frame, so All yields a row
// slice that the next frame overwrites — as Engine.All reuses its row slice
// — while Rows and a watch's anchor copy the rows out. Server-side typed
// errors arrive reconstructed: errors.Is and errors.As match
// ivmeps.ErrUnknownRelation, ivmeps.ArityError, ivmeps.MultiplicityError,
// ivmeps.ErrWatcherLagged, and friends exactly as they do against a local
// engine.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"ivmeps"
	"ivmeps/internal/server"
)

// Options configures a Client. The zero value is usable.
type Options struct {
	// HTTPClient overrides the transport; nil means a dedicated default
	// client. Watch streams are long-lived: if you pass your own client,
	// it must not set an overall request Timeout (use context deadlines on
	// the non-streaming calls instead).
	HTTPClient *http.Client
	// PageLimit is the rows per frame of the streams Rows and All read; 0
	// lets the server choose its default.
	PageLimit int
}

// Client talks to one ivmd server. Methods are safe for concurrent use.
type Client struct {
	base   string
	hc     *http.Client
	limit  string // the ?limit= of a read, or ""
	result string // the URL of a query-result read
	// frames is the FrameReader of the last read, kept for the next one with
	// its buffer and arrays; nil while a read holds it. Reads that overlap
	// make readers of their own, and only one is kept.
	frames atomic.Pointer[server.FrameReader]
}

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8344").
func New(baseURL string, opts Options) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), hc: hc}
	if opts.PageLimit > 0 {
		c.limit = "?limit=" + strconv.Itoa(opts.PageLimit)
	}
	c.result = c.base + "/v1/result/rows" + c.limit
	return c, nil
}

// Batch collects updates for one atomic remote commit, mirroring
// ivmeps.Batch: the builder methods never fail (validation happens
// server-side in Commit) and return the batch for chaining. Row slices are
// referenced, not copied, until Commit encodes them. Not safe for
// concurrent use.
type Batch struct {
	ops []server.Op
}

// NewBatch returns an empty update batch.
func (c *Client) NewBatch() *Batch { return &Batch{} }

// Insert queues the single-tuple insert {row → +1} against rel.
func (b *Batch) Insert(rel string, row []int64) *Batch { return b.Apply(rel, row, 1) }

// Delete queues the single-tuple delete {row → −1} against rel.
func (b *Batch) Delete(rel string, row []int64) *Batch { return b.Apply(rel, row, -1) }

// Apply queues the single-tuple update {row → mult} against rel.
func (b *Batch) Apply(rel string, row []int64, mult int64) *Batch {
	b.ops = append(b.ops, server.Op{Rel: rel, Row: row, Mult: mult})
	return b
}

// Len returns the number of queued updates.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch for reuse, keeping its storage.
func (b *Batch) Reset() {
	clear(b.ops)
	b.ops = b.ops[:0]
}

// Commit applies the batch as one atomic commit on the server and returns
// the epoch the commit published (the pre-commit epoch for an empty
// batch). All-or-nothing exactly as Engine.Commit: on a validation error —
// reconstructed as the typed ivmeps error it was — the remote engine is
// unchanged. Commit does not consume the batch; Reset it for the next one.
// The op lines are appended by hand (server.AppendOps) into one buffer per
// commit, which the transport may still read after the reply, and the reply
// decodes without encoding/json.
func (c *Client) Commit(ctx context.Context, b *Batch) (uint64, error) {
	var body []byte
	if b != nil {
		body = server.AppendOps(nil, b.ops)
	}
	addr := c.base + "/v1/commit"
	resp, err := c.do(ctx, http.MethodPost, addr, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	reply, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) // to its end, so the connection is reused
	cr, err := server.DecodeCommitReply(reply)
	if err != nil {
		if rerr != nil {
			err = rerr
		}
		return 0, fmt.Errorf("client: POST %s: decoding the reply: %w", addr, err)
	}
	return cr.Epoch, nil
}

// do sends one request — a body is an NDJSON op stream — and returns the
// response when its status is 200, for the caller to read and close; any
// other response comes back as the typed error it carries.
func (c *Client) do(ctx context.Context, method, addr string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, addr, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer drain(resp.Body)
		return nil, decodeErrorBody(resp)
	}
	return resp, nil
}

// Rows reads the query result (view "", via /v1/result/rows) or one root
// view (via /v1/views/{view}/rows) in full; every row observes the snapshot
// epoch returned. The rows are the caller's: they are copied out of the
// read's reused frame into one backing array. A read the server ended with
// "gone" (it evicted the oldest of too many open reads) restarts on a fresh
// snapshot, up to three attempts, so the returned state is always one
// consistent epoch.
func (c *Client) Rows(ctx context.Context, view string) (rows [][]int64, mults []int64, epoch uint64, err error) {
	for attempt := 0; ; attempt++ {
		var vals []int64
		var ends []int // where each row's values end in vals
		mults = nil
		epoch, err = c.walk(ctx, view, func(row []int64, mult int64) bool {
			vals = append(vals, row...)
			ends, mults = append(ends, len(vals)), append(mults, mult)
			return true
		})
		var we *server.WireError
		if err != nil && errors.As(err, &we) && we.Code == server.CodeGone && attempt < 2 {
			continue
		}
		if err != nil {
			return nil, nil, 0, err
		}
		if len(ends) > 0 {
			rows = make([][]int64, len(ends))
		}
		start := 0
		for i, end := range ends {
			rows[i], start = vals[start:end:end], end
		}
		return rows, mults, epoch, nil
	}
}

// walk is the one read behind Rows and All: one GET, whose stream it hands
// to yield row by row, decoded by the client's kept FrameReader. Breaking
// out of the loop closes the body unread, so the connection drops and the
// server's next frame write fails: the server's handler returns and releases
// the snapshot at once.
func (c *Client) walk(ctx context.Context, view string, yield func([]int64, int64) bool) (uint64, error) {
	path := c.result
	if view != "" {
		path = c.base + "/v1/views/" + url.PathEscape(view) + "/rows" + c.limit
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer drain(resp.Body)
		return 0, decodeErrorBody(resp)
	}
	frames := c.frames.Swap(nil)
	if frames == nil {
		frames = server.NewFrameReader(resp.Body)
	} else {
		frames.Reset(resp.Body)
	}
	epoch, closed, err := readRows(frames, yield)
	if closed {
		frames.Next() // read on to EOF, so the connection is reused
	}
	resp.Body.Close()
	frames.Reset(nil)
	c.frames.Store(frames)
	return epoch, err
}

// readRows decodes one read stream, handing each row to yield, up to the
// closing frame, whose epoch it returns and whose row count it checks;
// closed reports that frame was read. The stream decodes through frames, so
// the rows yield is handed are overwritten by the next frame. A stream that
// ends without its closing frame is an error, and so is a frame the reader
// rejects or an error frame; yield's false ends the read early, without one.
func readRows(frames *server.FrameReader, yield func([]int64, int64) bool) (epoch uint64, closed bool, err error) {
	n := 0
	for {
		f, err := frames.Next()
		if err != nil {
			return 0, false, fmt.Errorf("client: read stream ended after %d rows without its closing frame: %w", n, err)
		}
		switch f.Type {
		case server.FrameRows:
			for i, row := range f.Rows {
				if !yield(row, f.Mults[i]) {
					return 0, false, nil
				}
			}
			n += len(f.Rows)
		case server.FrameReady:
			if f.Count != n {
				return 0, true, fmt.Errorf("client: read stream closed at %d rows, but carried %d", f.Count, n)
			}
			return f.Epoch, true, nil
		case server.FrameError:
			return 0, false, decodeWireError(f.Err)
		default:
			// Unknown frame types are skipped (forward compatibility).
		}
	}
}

// All returns a lazy iterator over the query result (view "") or one root
// view, decoding the read's frames as the loop advances — every row of one
// ranging observes the same epoch. The yielded row slice is reused between
// iterations — copy it to retain. Because rows may already have been
// yielded, an error mid-iteration (including a read the server ended with
// "gone") ends the loop early instead of restarting; the returned error
// function reports it after the loop, nil on a complete pass or one the
// loop broke out of:
//
//	seq, errf := c.All(ctx, "")
//	for row, mult := range seq { ... }
//	if err := errf(); err != nil { ... }
func (c *Client) All(ctx context.Context, view string) (iter.Seq2[[]int64, int64], func() error) {
	var ferr error
	seq := func(yield func([]int64, int64) bool) {
		_, ferr = c.walk(ctx, view, yield)
	}
	return seq, func() error { return ferr }
}

// Stats fetches the server's /v1/stats report.
func (c *Client) Stats(ctx context.Context) (*server.StatsReply, error) {
	addr := c.base + "/v1/stats"
	resp, err := c.do(ctx, http.MethodGet, addr, nil)
	if err != nil {
		return nil, err
	}
	defer drain(resp.Body)
	var sr server.StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("client: GET %s: decoding the reply: %w", addr, err)
	}
	return &sr, nil
}

// Epoch returns the server's current committed snapshot epoch.
func (c *Client) Epoch(ctx context.Context) (uint64, error) {
	sr, err := c.Stats(ctx)
	if err != nil {
		return 0, err
	}
	return sr.Epoch, nil
}

// drain discards and closes a response body so the connection is reused.
func drain(rc io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(rc, 1<<20))
	rc.Close()
}

// decodeErrorBody reconstructs the typed error of a non-2xx response.
func decodeErrorBody(resp *http.Response) error {
	var env struct {
		Error *server.WireError `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&env); err != nil || env.Error == nil {
		return fmt.Errorf("client: server returned %s", resp.Status)
	}
	return decodeWireError(env.Error)
}

// decodeWireError maps a wire error back onto the ivmeps typed error it
// mirrors, so errors.Is/errors.As behave as they do against a local
// engine. Codes without a local counterpart surface as the *WireError.
func decodeWireError(we *server.WireError) error {
	if we == nil {
		return errors.New("client: error frame without an error")
	}
	switch we.Code {
	case server.CodeUnknownRelation:
		return fmt.Errorf("client: %w: %s", ivmeps.ErrUnknownRelation, we.Message)
	case server.CodeStatic:
		return fmt.Errorf("client: %w: %s", ivmeps.ErrStatic, we.Message)
	case server.CodeNotBuilt:
		return fmt.Errorf("client: %w: %s", ivmeps.ErrNotBuilt, we.Message)
	case server.CodeArity:
		return &ivmeps.ArityError{Relation: we.Relation, Row: we.Row, Schema: we.Schema}
	case server.CodeMultiplicity:
		return &ivmeps.MultiplicityError{Relation: we.Relation, Row: we.Row, Have: we.Have, Delta: we.Delta}
	case server.CodeWedged:
		return &ivmeps.LogWedgedError{Op: "append", Err: errors.New(we.Message)}
	default:
		return we
	}
}

// WatchOptions configures Client.Watch.
type WatchOptions struct {
	// Views restricts the stream to the named root views (nil means all),
	// exactly as ivmeps.WatchOptions.Views.
	Views []string
	// FromEpoch, when nonzero, asks to resume a previous stream: if the
	// server's committed epoch still equals FromEpoch the anchor state
	// dump is skipped (Watcher.Resumed reports true) and events continue
	// gap-free from FromEpoch+1; if commits happened in between, the
	// server sends a fresh full anchor instead — the client must replace
	// its folded state (Resumed reports false). Zero means a fresh stream.
	FromEpoch uint64
	// Buffer is the server-side per-stream event buffer in commits;
	// 0 means the server default, and the server refuses more than 65536.
	// A stream that falls further behind than its buffer is evicted with a
	// WatcherLaggedError.
	Buffer int
}

// ViewState is one root view's rows and multiplicities at the watch
// anchor.
type ViewState struct {
	Rows  [][]int64
	Mults []int64
}

// Watcher is one live watch stream, mirroring ivmeps.Watcher: an anchor
// state plus every later commit's deltas in epoch order with no gaps.
// Events is for a single consumer goroutine; Close may be called from any
// goroutine, including concurrently with a blocked Events iteration.
type Watcher struct {
	body    io.ReadCloser
	cancel  context.CancelFunc
	frames  *server.FrameReader
	epoch   uint64
	resumed bool
	views   []string
	anchor  map[string]*ViewState
	closed  atomic.Bool
	drained bool
	ended   bool
}

// Watch opens a streaming subscription to the server's commit stream. The
// returned watcher carries the anchor state (epoch + per-view rows, unless
// the stream resumed — see WatchOptions.FromEpoch), and its Events then
// yield every commit with epoch > AnchorEpoch, exactly like a local
// Engine.Watch. The stream lives until Close, a lag eviction, a server
// drain, or ctx cancellation.
func (c *Client) Watch(ctx context.Context, opts WatchOptions) (*Watcher, error) {
	q := url.Values{}
	if opts.Views != nil {
		q.Set("views", strings.Join(opts.Views, ","))
	}
	if opts.FromEpoch != 0 {
		q.Set("from_epoch", strconv.FormatUint(opts.FromEpoch, 10))
	}
	if opts.Buffer > 0 {
		q.Set("buffer", strconv.Itoa(opts.Buffer))
	}
	u := c.base + "/v1/watch"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("client: watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		err := decodeErrorBody(resp)
		drain(resp.Body)
		cancel()
		return nil, err
	}
	w := &Watcher{
		body:   resp.Body,
		cancel: cancel,
		frames: server.NewFrameReader(resp.Body),
		anchor: make(map[string]*ViewState),
	}
	if err := w.readAnchor(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// readAnchor consumes the stream opening up to the ready frame. A rows
// frame must belong to a view the anchor frame listed (the reader rejects
// one whose mults do not match its rows); its rows are copied out of the
// reader's reused frame into one array.
func (w *Watcher) readAnchor() error {
	sawAnchor := false
	for {
		f, err := w.frames.Next()
		if err != nil {
			return fmt.Errorf("client: watch stream ended during anchor: %w", err)
		}
		switch f.Type {
		case server.FrameAnchor:
			w.epoch, w.resumed, w.views = f.Epoch, f.Resume, f.Views
			sawAnchor = true
		case server.FrameRows:
			if !sawAnchor {
				return errors.New("client: watch stream sent rows before anchor")
			}
			if !slices.Contains(w.views, f.View) {
				return fmt.Errorf("client: watch stream sent rows of view %q, which its anchor frame did not list", f.View)
			}
			vs := w.anchor[f.View]
			if vs == nil {
				vs = &ViewState{}
				w.anchor[f.View] = vs
			}
			vals := slices.Concat(f.Rows...)
			for _, row := range f.Rows {
				if len(row) > 0 {
					row, vals = vals[:len(row):len(row)], vals[len(row):]
				}
				vs.Rows = append(vs.Rows, row)
			}
			vs.Mults = append(vs.Mults, f.Mults...)
		case server.FrameReady:
			if !sawAnchor {
				return errors.New("client: watch stream sent ready before anchor")
			}
			return nil
		case server.FrameError:
			return decodeWireError(f.Err)
		default:
			// Unknown frame types are skipped (forward compatibility).
		}
	}
}

// Epoch returns the anchor epoch: the committed state the stream starts
// from. The first event's epoch is Epoch()+1.
func (w *Watcher) Epoch() uint64 { return w.epoch }

// Resumed reports whether the server accepted WatchOptions.FromEpoch as a
// gap-free continuation (no anchor state was sent — keep the folded
// state). False means AnchorRows carries a full fresh anchor and any
// previously folded state must be replaced.
func (w *Watcher) Resumed() bool { return w.resumed }

// Views returns the view names this stream carries, in server order.
func (w *Watcher) Views() []string { return w.views }

// AnchorRows returns one view's anchor state. ok is false for a view the
// stream does not carry; a resumed stream has no anchor state at all. The
// returned slices are owned by the caller (the watcher keeps no
// references).
func (w *Watcher) AnchorRows(view string) (rows [][]int64, mults []int64, ok bool) {
	vs := w.anchor[view]
	if vs == nil {
		return nil, nil, false
	}
	return vs.Rows, vs.Mults, true
}

// Events iterates the stream's commits in epoch order, blocking between
// commits, with exactly ivmeps.Watcher.Events's contract: consecutive
// epochs from Epoch()+1, empty-delta events included, and the iteration
// ends silently on Close or an orderly server drain (Drained
// distinguishes the two), or with exactly one final non-nil error — a
// *ivmeps.WatcherLaggedError naming missed epochs after a lag eviction,
// or the transport error of a dropped connection. Breaking out of the
// loop does not close the watcher; ranging again resumes the stream.
func (w *Watcher) Events() iter.Seq2[ivmeps.Event, error] {
	return func(yield func(ivmeps.Event, error) bool) {
		if w.ended {
			return
		}
		for {
			f, err := w.frames.Next()
			if err != nil {
				w.ended = true
				if !w.closed.Load() {
					yield(ivmeps.Event{}, fmt.Errorf("client: watch stream dropped: %w", err))
				}
				return
			}
			switch f.Type {
			case server.FrameEvent:
				if !yield(ivmeps.Event{Epoch: f.Epoch, Deltas: f.Deltas}, nil) {
					return
				}
			case server.FrameLagged:
				w.ended = true
				yield(ivmeps.Event{}, &ivmeps.WatcherLaggedError{From: f.From, To: f.To})
				return
			case server.FrameEnd:
				w.ended = true
				w.drained = true
				return
			case server.FrameError:
				w.ended = true
				yield(ivmeps.Event{}, decodeWireError(f.Err))
				return
			default:
				// Unknown frame types are skipped (forward compatibility).
			}
		}
	}
}

// Drained reports whether the stream was ended by an orderly server drain
// (a terminal "end" frame) rather than by Close or a dropped connection.
// Meaningful once Events has returned.
func (w *Watcher) Drained() bool { return w.drained }

// Close ends the subscription: a blocked or future Events iteration
// returns silently and the connection is released. Idempotent and safe
// from any goroutine.
func (w *Watcher) Close() {
	if w.closed.CompareAndSwap(false, true) {
		w.cancel()
		w.body.Close()
	}
}
