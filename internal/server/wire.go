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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

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
	Rows   RowBlock   `json:"rows,omitempty"`
	Mults  []int64    `json:"mults,omitempty"`
	Deltas []Delta    `json:"deltas,omitempty"`
	From   uint64     `json:"from,omitempty"`
	To     uint64     `json:"to,omitempty"`
	Reason string     `json:"reason,omitempty"`
	Err    *WireError `json:"error,omitempty"`
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

// ParseFrame decodes one stream frame from its NDJSON line. A frame without
// a type, or one whose JSON is malformed, is an error; unknown frame types
// decode successfully (forward compatibility — clients skip them).
func ParseFrame(line []byte) (Frame, error) {
	var f Frame
	if err := json.Unmarshal(line, &f); err != nil {
		return Frame{}, err
	}
	if f.Type == "" {
		return Frame{}, errors.New("frame without a type")
	}
	return f, nil
}

// CommitReply is the success body of POST /v1/commit: the epoch the commit
// published (unchanged for an empty op stream) and the op count applied.
type CommitReply struct {
	Epoch uint64 `json:"epoch"`
	Ops   int    `json:"ops"`
}

// RowBlock is the rows of one rows frame. On the wire it is a plain JSON
// array of integer arrays, encoded by encoding/json as the [][]int64 it is;
// decoding fills one backing array and one slice of row headers instead of
// growing every row on its own, so a frame costs the client a fixed number
// of allocations. The rows are sub-slices of that array, which belongs to
// the decoded value and is never reused.
type RowBlock [][]int64

// UnmarshalJSON accepts exactly what encoding/json accepts for a [][]int64
// — null, or an array whose elements are null or arrays of integer literals
// in int64 range (null counting as 0), with JSON whitespace anywhere between
// tokens — and yields the same value; anything else is an error.
func (b *RowBlock) UnmarshalJSON(data []byte) error {
	count := rowScan{data: data}
	if err := count.block(); err != nil {
		return err
	}
	if count.nRows < 0 {
		*b = nil
		return nil
	}
	fill := rowScan{data: data, rows: make(RowBlock, count.nRows), vals: make([]int64, count.nVals)}
	_ = fill.block() // the same bytes: it succeeds again
	*b = fill.rows
	return nil
}

// rowScan is one pass over a row block's JSON: it checks the grammar and
// counts the rows and values and, when rows is set, also stores them — every
// row as the next values of vals. nRows is -1 for a null block.
type rowScan struct {
	data         []byte
	i            int
	rows         RowBlock
	vals         []int64
	nRows, nVals int
}

func (s *rowScan) block() error {
	s.space()
	if s.null() {
		s.nRows = -1
	} else if !s.list(true) {
		return s.bad()
	}
	if s.space(); s.i != len(s.data) {
		return s.bad()
	}
	return nil
}

func (s *rowScan) bad() error {
	return fmt.Errorf("server: rows: not an array of integer arrays at offset %d", s.i)
}

func (s *rowScan) space() {
	for s.i < len(s.data) && (s.data[s.i] == ' ' || s.data[s.i] == '\t' || s.data[s.i] == '\n' || s.data[s.i] == '\r') {
		s.i++
	}
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
	if s.space(); s.peek() == ']' {
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
		s.space()
		switch s.peek() {
		case ',':
			s.i++
			s.space()
		case ']':
			s.i++
			return true
		default:
			return false
		}
	}
}

func (s *rowScan) row() bool {
	from := s.nVals
	if !s.null() {
		if !s.list(false) {
			return false
		}
		if s.rows != nil {
			s.rows[s.nRows] = s.vals[from:s.nVals:s.nVals]
		}
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
	if s.rows != nil {
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
