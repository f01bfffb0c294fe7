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
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

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
func DecodeOps(r io.Reader, maxOps int) ([]Op, error) {
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	dec := json.NewDecoder(r)
	var ops []Op
	for i := 0; ; i++ {
		var ow opWire
		if err := dec.Decode(&ow); err != nil {
			if err == io.EOF {
				return ops, nil
			}
			return nil, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("op %d: %v", i, err)}
		}
		if i >= maxOps {
			return nil, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("more than %d ops in one commit", maxOps)}
		}
		if ow.Rel == "" {
			return nil, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("op %d: missing relation name", i)}
		}
		mult := int64(1)
		if ow.Mult != nil {
			mult = *ow.Mult
		}
		ops = append(ops, Op{Rel: ow.Rel, Row: ow.Row, Mult: mult})
	}
}

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
// FrameReader decodes a line that is not a rows frame in the frame writer's
// form. A frame without a type, or one whose JSON is malformed, is an error;
// unknown frame types decode successfully (forward compatibility — clients
// skip them).
func ParseFrame(line []byte) (Frame, error) {
	f, err := new(frameDecoder).decode(line)
	return *f, err
}

// CommitReply is the success body of POST /v1/commit: the epoch the commit
// published (unchanged for an empty op stream) and the op count applied.
type CommitReply struct {
	Epoch uint64 `json:"epoch"`
	Ops   int    `json:"ops"`
}

// rowsFrameHead opens every rows frame the frame writer writes.
const rowsFrameHead = `{"type":"rows"`

// rowsEncoder writes rows frames without encoding/json, in the bytes
// json.Encoder.Encode writes for them: the keys type, view, rows and mults
// in that order, the last three left out when empty, and a newline. Every
// frame is appended into one buffer, which the next frame reuses, and the
// view name is encoded by json.Marshal, once per view.
type rowsEncoder struct {
	buf      []byte
	view     string // the view of the previous frame
	viewJSON []byte // view, encoded
}

// plainRows reports whether f is a rows frame with none of the fields a
// rows frame does not carry, so that rowsEncoder can write it.
func (f *Frame) plainRows() bool {
	return f.Type == FrameRows && f.Epoch == 0 && f.Count == 0 && len(f.Views) == 0 && !f.Resume &&
		len(f.Deltas) == 0 && f.From == 0 && f.To == 0 && f.Reason == "" && f.Err == nil
}

// encode returns the line of f, a frame for which plainRows holds. The
// line is valid until the next call.
func (e *rowsEncoder) encode(f *Frame) []byte {
	if f.View != e.view {
		e.view = f.View
		e.viewJSON, _ = json.Marshal(f.View) // a string always encodes
	}
	// Size the buffer once for the largest frame so far: a value takes at
	// most 20 bytes and its comma, a row its brackets and comma or "null,".
	size := 64 + len(e.viewJSON) + 21*len(f.Mults)
	for _, row := range f.Rows {
		size += 5 + 21*len(row)
	}
	if cap(e.buf) < size {
		e.buf = make([]byte, 0, size)
	}
	b := append(e.buf[:0], rowsFrameHead...)
	if f.View != "" {
		b = append(append(b, `,"view":`...), e.viewJSON...)
	}
	if len(f.Rows) > 0 {
		b = append(b, `,"rows":[`...)
		for i, row := range f.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
			} else {
				b = appendInts(b, row)
			}
		}
		b = append(b, ']')
	}
	if len(f.Mults) > 0 {
		b = appendInts(append(b, `,"mults":`...), f.Mults)
	}
	e.buf = append(b, "}\n"...)
	return e.buf
}

// appendInts appends vs as a JSON array.
func appendInts(b []byte, vs []int64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}

// FrameReader decodes a read or watch stream, the frames a frameWriter
// writes, one line at a time. A rows frame in the writer's form decodes into
// one Frame whose row headers, values and mults every such frame reuses
// (decodeRowsFrame); any other line decodes as ParseFrame decodes it, through
// one json.Decoder that the stream keeps. The bufio.Reader and the decoder
// are kept by value: neither costs an allocation of its own.
type FrameReader struct {
	br   bufio.Reader
	long []byte // a line longer than br's buffer; the next such line reuses it
	rows Frame
	json frameDecoder
}

// NewFrameReader returns a reader of the frame stream r, whose buffer holds
// a rows frame of 2 048 rows of a few small values whole.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: *bufio.NewReaderSize(r, 64<<10)}
}

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
		if f, err = r.json.decode(line); err != nil {
			return nil, err
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

// decodeRowsFrame decodes line, one frame without its newline, into f when
// it is a rows frame in the form the frame writer writes: the keys type,
// view, rows and mults in that order, the last three optional, no
// whitespace between them, and a view name without escapes, control
// characters or invalid UTF-8. It fills f's row headers, value array and
// mults in place when they are large enough, so that a reader decoding every
// frame into one Frame allocates nothing once they are — and the rows of the
// previous frame are overwritten. For any other line it returns false and
// leaves f as it was: the caller decodes that line through encoding/json.
// What it accepts, it decodes as json.Unmarshal does, rows for rows and null
// rows as nil rows, except that an absent rows or mults key leaves an empty
// slice, not nil.
func decodeRowsFrame(line []byte, f *Frame) bool {
	rest, ok := bytes.CutPrefix(line, []byte(rowsFrameHead))
	if !ok {
		return false
	}
	var view []byte
	if r, ok := bytes.CutPrefix(rest, []byte(`,"view":"`)); ok {
		end := 0
		for end < len(r) && r[end] != '"' && r[end] != '\\' && r[end] >= 0x20 {
			end++
		}
		if end == len(r) || r[end] != '"' || !utf8.Valid(r[:end]) {
			return false
		}
		view, rest = r[:end], r[end+1:]
	}
	// The count passes check the grammar; a list the line leaves out counts
	// as empty.
	var rows, mults rowScan
	if r, ok := bytes.CutPrefix(rest, []byte(`,"rows":`)); ok {
		if rows.data = r; !rows.list(true) {
			return false
		}
		rest = r[rows.i:]
	}
	if r, ok := bytes.CutPrefix(rest, []byte(`,"mults":`)); ok {
		if mults.data = r; !mults.list(false) {
			return false
		}
		rest = r[mults.i:]
	}
	if string(rest) != "}" {
		return false
	}
	g := Frame{Type: FrameRows, View: f.View}
	if g.View != string(view) {
		g.View = string(view)
	}
	g.Rows, g.vals = rows.fill(true, f.Rows, f.vals)
	_, g.Mults = mults.fill(false, nil, f.Mults)
	*f = g
	return true
}

// rowScan is one pass over the rows of a rows frame in the writer's form,
// or over one integer array: it checks the grammar and counts the rows and
// values and, in a fill pass, also stores them — every row, when rows is
// set, as the next values of vals.
type rowScan struct {
	data         []byte
	i            int
	rows         [][]int64
	vals         []int64
	nRows, nVals int
}

// fill is the fill pass over the list that the count pass s accepted — the
// rows of a rows frame when outer is set, else one integer array. It stores
// the values into vals and the rows into rows, reusing each when it is
// large enough, and returns both.
func (s *rowScan) fill(outer bool, rows [][]int64, vals []int64) ([][]int64, []int64) {
	if vals == nil || cap(vals) < s.nVals {
		vals = make([]int64, s.nVals)
	}
	f := rowScan{data: s.data[:s.i], vals: vals[:s.nVals]}
	if outer {
		if rows == nil || cap(rows) < s.nRows {
			rows = make([][]int64, s.nRows)
		}
		f.rows = rows[:s.nRows]
	}
	f.list(outer) // the same bytes: it succeeds again, or counts nothing again
	return f.rows, f.vals
}

// peek returns the next byte, or 0 at the end of the input.
func (s *rowScan) peek() byte {
	if s.i < len(s.data) {
		return s.data[s.i]
	}
	return 0
}

func (s *rowScan) null() bool {
	if len(s.data)-s.i < 4 || string(s.data[s.i:s.i+4]) != "null" {
		return false
	}
	s.i += 4
	return true
}

// list consumes "[]" or "[" elem ("," elem)* "]", the elements being rows in
// the outer list and numbers in a row's, and reports whether the input had
// that shape.
func (s *rowScan) list(outer bool) bool {
	if s.peek() != '[' {
		return false
	}
	s.i++
	if s.peek() == ']' {
		s.i++
		return true
	}
	for {
		elem := s.number
		if outer {
			elem = s.row
		}
		if !elem() {
			return false
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return true
		default:
			return false
		}
	}
}

// row consumes one row; a fill pass stores a null row as nil, so that no
// row of a previous frame survives in reused headers.
func (s *rowScan) row() bool {
	from := s.nVals
	var row []int64
	if !s.null() {
		if !s.list(false) {
			return false
		}
		if s.rows != nil {
			row = s.vals[from:s.nVals:s.nVals]
		}
	}
	if s.rows != nil {
		s.rows[s.nRows] = row
	}
	s.nRows++
	return true
}

// number consumes null (the zero value, as in encoding/json) or
// "-"? ("0" | [1-9][0-9]*) within int64; a fraction or exponent after it
// fails list's check for "," or "]".
func (s *rowScan) number() bool {
	var u uint64
	limit := uint64(math.MaxInt64)
	neg := false
	if !s.null() {
		if neg = s.peek() == '-'; neg {
			limit++
			s.i++
		}
		start := s.i
		for ; s.peek() >= '0' && s.peek() <= '9'; s.i++ {
			if u > limit/10 {
				return false
			}
			if u = u*10 + uint64(s.data[s.i]-'0'); u > limit {
				return false
			}
		}
		if s.i == start || (s.data[start] == '0' && s.i-start > 1) {
			return false // no digits, or a leading zero
		}
	}
	if s.vals != nil {
		s.vals[s.nVals] = int64(u)
		if neg {
			s.vals[s.nVals] = -int64(u)
		}
	}
	s.nVals++
	return true
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
