// Package server exposes one built *ivmeps.Engine over HTTP: batch
// commits, snapshot-consistent streamed reads, and per-commit watch
// streaming, all framed as newline-delimited JSON (NDJSON). The package is
// stdlib-only and spawns no goroutines of its own beyond the per-connection
// goroutines net/http already runs; internal/client is the matching Go
// client, and cmd/ivmd the daemon wrapping both behind flags.
//
// Endpoints (full wire grammar and semantics: docs/SERVICE.md):
//
//	POST /v1/commit               NDJSON op stream → one atomic commit
//	GET  /v1/result/rows          streamed query-result enumeration
//	GET  /v1/views/{view}/rows    streamed root-view enumeration
//	GET  /v1/watch                chunked NDJSON commit-delta stream
//	GET  /v1/stats                engine counters + epoch as JSON
//	GET  /healthz                 liveness (503 while draining)
//	GET  /metrics                 Prometheus text exposition
//
// Reads are backed by Engine.Snapshot, so they never block the writer: one
// read is one response of rows frames, enumerated from one snapshot as they
// are written, and a closing frame with the epoch and the row count. The
// watch stream anchors at a snapshot and then relays the engine's gap-free
// per-commit deltas; a consumer that cannot keep up is evicted with a typed
// "lagged" frame naming the missed epochs, exactly as the in-process
// Watcher reports them. Both kinds of stream write every frame under a
// deadline, so a peer that stops reading is cut off.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"ivmeps"
)

// Op is one update of a commit stream: the multiplicity delta Mult applied
// to Row of relation Rel. On the wire it is one NDJSON value,
//
//	{"rel":"R","row":[1,10],"mult":-2}
//
// and a missing "mult" key means +1, so a plain insert needs only rel and
// row. Zero is legal (validated, no effect), matching Batch.Apply.
type Op struct {
	Rel  string  `json:"rel"`
	Row  []int64 `json:"row"`
	Mult int64   `json:"mult"`
}

// opWire is Op's decode shape: the pointer distinguishes a missing "mult"
// (defaulted to +1) from an explicit zero.
type opWire struct {
	Rel  string  `json:"rel"`
	Row  []int64 `json:"row"`
	Mult *int64  `json:"mult"`
}

// DecodeOps reads a commit's NDJSON op stream. maxOps bounds the stream
// (<=0 means DefaultMaxOps); exceeding it, a syntactically malformed
// value, or an op without a relation name is a *WireError with code
// "bad_request" identifying the offending op index.
//
// The ops at the head of the stream that are in the client's form
// (AppendOps) decode without encoding/json, their rows into one values array
// sized by a count pass; from the first value in any other form on, the
// stream decodes through a json.Decoder, which gives the ops and errors it
// gave for the whole stream. The body is read whole first.
func DecodeOps(r io.Reader, maxOps int) ([]Op, error) {
	ops, _, err := decodeOps(r, maxOps)
	return ops, err
}

// opBodies holds the buffers commit bodies are read into; one that grew past
// maxPooledBody is dropped.
var opBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// decodeOps is DecodeOps, which also returns how many values it handed to
// encoding/json.
func decodeOps(r io.Reader, maxOps int) ([]Op, int, error) {
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	body := opBodies.Get().(*bytes.Buffer)
	defer func() {
		if body.Cap() <= maxPooledBody {
			body.Reset()
			opBodies.Put(body)
		}
	}()
	body.Reset()
	_, rerr := body.ReadFrom(r)
	data := body.Bytes()

	// The count pass: the ops in the client's form at the head of the body,
	// at most maxOps of them, and their values.
	count := rowScan{data: data}
	var n, vals, end int
	var ops []Op
	var op Op
	for ; n < maxOps; n++ {
		count.space()
		if !count.decodeOp(&op) {
			break
		}
		vals, end = count.nVals, count.i
	}
	if n > 0 {
		ops = make([]Op, n)
		var names []string
		fill := rowScan{data: data[:end], vals: make([]int64, vals), names: &names}
		for i := range ops {
			fill.space()
			fill.decodeOp(&ops[i])
		}
	}
	rest := data[end:]
	if rerr == nil && len(bytes.TrimLeft(rest, " \t\r\n")) == 0 {
		return ops, 0, nil
	}

	var in io.Reader = bytes.NewReader(rest)
	if rerr != nil {
		in = io.MultiReader(in, errReader{rerr}) // the error where a json.Decoder of the body meets it
	}
	return decodeOpsJSON(json.NewDecoder(in), ops, maxOps)
}

// decodeOpsJSON decodes the rest of an op stream through dec, after the
// len(ops) ops already decoded, and returns all of them and how many values
// it decoded.
func decodeOpsJSON(dec *json.Decoder, ops []Op, maxOps int) ([]Op, int, error) {
	n := 0
	for i := len(ops); ; i++ {
		var ow opWire
		if err := dec.Decode(&ow); err != nil {
			if err == io.EOF {
				return ops, n, nil
			}
			return nil, n, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("op %d: %v", i, err)}
		}
		n++
		if i >= maxOps {
			return nil, n, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("more than %d ops in one commit", maxOps)}
		}
		if ow.Rel == "" {
			return nil, n, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("op %d: missing relation name", i)}
		}
		mult := int64(1)
		if ow.Mult != nil {
			mult = *ow.Mult
		}
		ops = append(ops, Op{Rel: ow.Rel, Row: ow.Row, Mult: mult})
	}
}

// errReader is a reader that only fails.
type errReader struct{ err error }

// Read returns the reader's error.
func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// DefaultMaxOps bounds the number of ops DecodeOps accepts in one commit
// when the caller does not say otherwise.
const DefaultMaxOps = 1 << 20

// Frame is one NDJSON value of a /v1/watch stream or of a read stream
// (/v1/result/rows, /v1/views/{view}/rows). Type selects which of the
// remaining fields are meaningful:
//
//	"anchor"  Epoch, Views, Resume — stream start; Resume true means the
//	          client's from_epoch matched and no state dump follows
//	"rows"    View, Rows, Mults — one chunk of the anchor state dump, or of
//	          a read (View absent for the query result)
//	"ready"   Epoch — anchor dump complete; event frames follow. Closing a
//	          read: Epoch, Count — the snapshot read and its rows
//	"event"   Epoch, Deltas — one commit's root-view deltas (Deltas empty
//	          for a commit that changed none of the subscribed views)
//	"lagged"  From, To — the watcher was evicted; commits From..To were
//	          dropped and the stream ends
//	"end"     Reason — orderly stream end (server drain); no data was lost
//	"error"   Err — the request failed after headers were sent
type Frame struct {
	Type   string     `json:"type"`
	Epoch  uint64     `json:"epoch,omitempty"`
	Count  int        `json:"count,omitempty"`
	Views  []string   `json:"views,omitempty"`
	Resume bool       `json:"resume,omitempty"`
	View   string     `json:"view,omitempty"`
	Rows   [][]int64  `json:"rows,omitempty"`
	Mults  []int64    `json:"mults,omitempty"`
	Deltas []Delta    `json:"deltas,omitempty"`
	From   uint64     `json:"from,omitempty"`
	To     uint64     `json:"to,omitempty"`
	Reason string     `json:"reason,omitempty"`
	Err    *WireError `json:"error,omitempty"`

	vals []int64 // the values of Rows, when decodeRowsFrame filled them
}

// The Frame.Type values.
const (
	FrameAnchor = "anchor"
	FrameRows   = "rows"
	FrameReady  = "ready"
	FrameEvent  = "event"
	FrameLagged = "lagged"
	FrameEnd    = "end"
	FrameError  = "error"
)

// Delta is one root view's change within an event frame: Rows[i] changed
// multiplicity by Mults[i]. It is the engine's own type, whose JSON tags
// are the wire's keys ("view", "rows", "mults").
type Delta = ivmeps.ViewDelta

// ParseFrame decodes one stream frame from its NDJSON line, as a
// FrameReader decodes it, into arrays of its own. A frame without a type, or
// one whose JSON is malformed, is an error; unknown frame types decode
// successfully (forward compatibility — clients skip them).
func ParseFrame(line []byte) (Frame, error) {
	var f Frame
	if decodeRowsFrame(line, &f) || decodeReadyFrame(line, &f) || decodeEventFrame(line, &f, nil) {
		return f, nil
	}
	g, err := new(frameDecoder).decode(line)
	return *g, err
}

// CommitReply is the success body of POST /v1/commit: the epoch the commit
// published (unchanged for an empty op stream) and the op count applied.
type CommitReply struct {
	Epoch uint64 `json:"epoch"`
	Ops   int    `json:"ops"`
}

// FrameReader decodes a read or watch stream, the frames a frameWriter
// writes, one line at a time. A rows frame in the writer's form decodes into
// one Frame whose row headers, values and mults every such frame reuses
// (decodeRowsFrame); a ready or event frame in the writer's form decodes on
// the same scanner (decodeReadyFrame, decodeEventFrame), an event into arrays
// of its own; any other line decodes as encoding/json decodes it, through one
// json.Decoder that the reader keeps. NewFrameReader allocates the reader and
// its 64 KiB buffer; Reset points them at the next stream, so a reader kept
// between streams allocates nothing of its own for the next one.
type FrameReader struct {
	br        bufio.Reader
	long      []byte // a line longer than br's buffer; the next such line reuses it
	rows      Frame
	frame     Frame    // a ready or event frame
	names     []string // the view names of earlier events, which later ones share
	json      frameDecoder
	fallbacks int // the rows, ready and event frames decoded through encoding/json
}

// NewFrameReader returns a reader of the frame stream r, whose buffer holds
// a rows frame of 2 048 rows of a few small values whole.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: *bufio.NewReaderSize(r, 64<<10)}
}

// Reset makes the reader read the stream r from its start, keeping its
// buffer and the arrays of its rows frame.
func (r *FrameReader) Reset(rd io.Reader) {
	r.br.Reset(rd)
	r.json.read, r.json.line = 0, bytes.Reader{}
}

// Fallbacks reports how many rows, ready and event frames the reader has
// decoded through encoding/json, over every stream it has read: those that
// were not in the frame writer's form. Reading a frameWriter's stream, it
// stays 0.
func (r *FrameReader) Fallbacks() int { return r.fallbacks }

// Next decodes the stream's next line. The frame is valid until the next
// call, and the Rows and Mults of a rows frame may be overwritten by it; the
// other slices a frame holds are the caller's. A line that is no frame, a
// blank one included, is an error, and so is a rows frame whose rows and
// mults differ in number; after an error the stream is broken, and the
// caller stops reading it. A last line without its newline is still a line;
// after it, Next returns io.EOF.
func (r *FrameReader) Next() (*Frame, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if err != nil && (err != io.EOF || len(line) == 0) {
		return nil, err
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	f := &r.rows
	if !decodeRowsFrame(line, f) {
		f = &r.frame
		if !decodeReadyFrame(line, f) && !decodeEventFrame(line, f, &r.names) {
			if f, err = r.json.decode(line); err != nil {
				return nil, err
			}
			if f.Type == FrameRows || f.Type == FrameReady || f.Type == FrameEvent {
				r.fallbacks++
			}
		}
	}
	if f.Type == FrameRows && len(f.Mults) != len(f.Rows) {
		return nil, fmt.Errorf("server: rows frame with %d rows and %d mults", len(f.Rows), len(f.Mults))
	}
	return f, nil
}

// frameDecoder decodes frames through encoding/json, one line at a time, as
// json.Unmarshal does: a line holds one frame and nothing but whitespace
// after it, and the frame has a type. Its json.Decoder reads every line
// through one bytes.Reader, which the next line resets, so a stream keeps
// the decoder's buffer.
type frameDecoder struct {
	line bytes.Reader
	dec  json.Decoder
	read int64 // the bytes of the earlier lines that dec read
	f    Frame
}

// decode decodes line into a zeroed d.f and returns it: the slices it holds
// are new. On an error the frame is zero.
func (d *frameDecoder) decode(line []byte) (*Frame, error) {
	d.read += d.line.Size() - int64(d.line.Len())
	if d.read == 0 {
		d.dec = *json.NewDecoder(&d.line) // it has read nothing yet: (re)start it
	}
	d.line.Reset(line)
	d.f = Frame{}
	err := d.dec.Decode(&d.f)
	switch {
	case err == io.EOF:
		err = errors.New("server: blank line in a frame stream")
	case err != nil:
	case len(bytes.TrimLeft(line[d.dec.InputOffset()-d.read:], " \t\r\n")) > 0:
		err = fmt.Errorf("server: frame line continues after its frame, at offset %d", d.dec.InputOffset()-d.read)
	case d.f.Type == "":
		err = errors.New("frame without a type")
	}
	if err != nil {
		d.f = Frame{}
	}
	return &d.f, err
}

// StatsReply is the body of GET /v1/stats.
type StatsReply struct {
	// Query is the served query's text, when the server was told it
	// (Options.Query); informational only.
	Query string `json:"query,omitempty"`
	// Epoch is the current committed snapshot epoch.
	Epoch uint64 `json:"epoch"`
	// N is the database size (distinct tuples across base relations).
	N int `json:"n"`
	// Views names the root views (Engine.Views order).
	Views []string `json:"views"`
	// Watchers is the number of live watch streams.
	Watchers int64 `json:"watchers"`
	// Readers is the number of open read streams.
	Readers int `json:"readers"`
	// Draining reports whether Drain has been called.
	Draining bool `json:"draining"`
	// Engine carries the engine's maintenance counters.
	Engine EngineStats `json:"engine"`
}

// EngineStats is the engine's own counters type, whose JSON tags are the
// wire's keys ("updates", "minor_rebalances", "major_rebalances",
// "view_deltas", "batches", "batch_relations").
type EngineStats = ivmeps.Stats

// The response headers. HeaderEpoch, on every commit and read response, is
// the epoch the commit published or the read observes. Reads no longer set
// HeaderNext, the next-page cursor of the paginated reads a read stream
// replaced; it stays declared for callers that still look for it.
const (
	HeaderEpoch = "X-Ivmd-Epoch"
	HeaderNext  = "X-Ivmd-Next-Cursor"
)

// WireError is the machine-readable error body of every non-2xx response
// (wrapped as {"error":{...}}) and of in-stream "error" frames. Code is
// from the Code* set; the remaining fields carry the typed detail of the
// engine errors they mirror, so internal/client can reconstruct
// ivmeps.ArityError, ivmeps.MultiplicityError, and friends exactly.
type WireError struct {
	Code     string   `json:"code"`
	Message  string   `json:"message"`
	Relation string   `json:"relation,omitempty"`
	Row      []int64  `json:"row,omitempty"`
	Schema   []string `json:"schema,omitempty"`
	Have     int64    `json:"have,omitempty"`
	Delta    int64    `json:"delta,omitempty"`
}

// Error formats the wire error.
func (e *WireError) Error() string { return fmt.Sprintf("ivmd: %s: %s", e.Code, e.Message) }

// The WireError codes.
const (
	// CodeBadRequest: malformed request framing (bad JSON, bad parameters).
	CodeBadRequest = "bad_request"
	// CodeUnknownRelation mirrors ivmeps.ErrUnknownRelation.
	CodeUnknownRelation = "unknown_relation"
	// CodeUnknownView: a view name Engine.Views does not list.
	CodeUnknownView = "unknown_view"
	// CodeArity mirrors ivmeps.ArityError.
	CodeArity = "arity"
	// CodeMultiplicity mirrors ivmeps.MultiplicityError.
	CodeMultiplicity = "multiplicity"
	// CodeStatic mirrors ivmeps.ErrStatic.
	CodeStatic = "static"
	// CodeNotBuilt mirrors ivmeps.ErrNotBuilt.
	CodeNotBuilt = "not_built"
	// CodeWedged mirrors ivmeps.LogWedgedError: the WAL failed and the
	// engine is read-only until restarted.
	CodeWedged = "wedged"
	// CodeGone: the read stream was ended, as the oldest of more than 128
	// open ones; restart the read. It only ever arrives as an in-stream
	// error frame.
	CodeGone = "gone"
	// CodeDraining: the server is shutting down and accepts no new commits
	// or watch streams.
	CodeDraining = "draining"
	// CodeEpochAhead: a watch asked to resume from an epoch the engine has
	// not reached (a client ahead of a restarted server).
	CodeEpochAhead = "epoch_ahead"
	// CodeInternal: an unclassified server-side failure.
	CodeInternal = "internal"
)

// HTTPStatus maps a WireError code to its response status.
func HTTPStatus(code string) int {
	switch code {
	case CodeBadRequest, CodeArity, CodeMultiplicity, CodeEpochAhead:
		return http.StatusBadRequest
	case CodeUnknownRelation, CodeUnknownView:
		return http.StatusNotFound
	case CodeStatic, CodeNotBuilt:
		return http.StatusConflict
	case CodeWedged, CodeDraining:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// EncodeError maps an engine (or server) error to its wire form. Typed
// engine errors keep their structure; anything unrecognized becomes
// CodeInternal with the error text.
func EncodeError(err error) *WireError {
	var we *WireError
	if errors.As(err, &we) {
		return we
	}
	var ae *ivmeps.ArityError
	if errors.As(err, &ae) {
		return &WireError{Code: CodeArity, Message: ae.Error(), Relation: ae.Relation, Row: ae.Row, Schema: ae.Schema}
	}
	var me *ivmeps.MultiplicityError
	if errors.As(err, &me) {
		return &WireError{Code: CodeMultiplicity, Message: me.Error(), Relation: me.Relation, Row: me.Row, Have: me.Have, Delta: me.Delta}
	}
	var lwe *ivmeps.LogWedgedError
	if errors.As(err, &lwe) {
		return &WireError{Code: CodeWedged, Message: lwe.Error()}
	}
	switch {
	case errors.Is(err, ivmeps.ErrUnknownRelation):
		return &WireError{Code: CodeUnknownRelation, Message: err.Error()}
	case errors.Is(err, ivmeps.ErrStatic):
		return &WireError{Code: CodeStatic, Message: err.Error()}
	case errors.Is(err, ivmeps.ErrNotBuilt):
		return &WireError{Code: CodeNotBuilt, Message: err.Error()}
	}
	return &WireError{Code: CodeInternal, Message: err.Error()}
}
