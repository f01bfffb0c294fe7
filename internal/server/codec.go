package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The hand-written codec of the service's stream frames and of a commit's op
// lines. Each end writes and reads them in exactly the bytes encoding/json
// writes, so the wire is json's. The server writes every frame here; a
// reader decodes rows, ready and event frames here, and a line in any other
// form through encoding/json.

// appendFrame appends the line of f to b, in the bytes json.Encoder.Encode
// writes for it: Frame's keys in their order, each left out when empty (a
// delta's keys never are), and a newline. It returns the extended buffer,
// grown at most once for a frame's numbers, rows and view names: a number
// takes at most 20 bytes and its comma, a row its brackets and comma or
// "null,", and a byte of a name at most six once escaped. The views, reason
// or error of a rare frame may grow it again.
func appendFrame(b []byte, f *Frame) []byte {
	size := len(b) + 96 + 6*len(f.View) + rowsSize(f.Rows) + 21*len(f.Mults)
	for i := range f.Deltas {
		d := &f.Deltas[i]
		size += 48 + 6*len(d.View) + rowsSize(d.Rows) + 21*len(d.Mults)
	}
	if cap(b) < size {
		b = append(make([]byte, 0, size), b...)
	}
	b = appendString(append(b, `{"type":`...), f.Type)
	if f.Epoch != 0 {
		b = strconv.AppendUint(append(b, `,"epoch":`...), f.Epoch, 10)
	}
	if f.Count != 0 {
		b = strconv.AppendInt(append(b, `,"count":`...), int64(f.Count), 10)
	}
	if len(f.Views) > 0 {
		b = append(b, `,"views":[`...)
		for i, v := range f.Views {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, v)
		}
		b = append(b, ']')
	}
	if f.Resume {
		b = append(b, `,"resume":true`...)
	}
	if f.View != "" {
		b = appendString(append(b, `,"view":`...), f.View)
	}
	if len(f.Rows) > 0 {
		b = appendRows(append(b, `,"rows":`...), f.Rows)
	}
	if len(f.Mults) > 0 {
		b = appendInts(append(b, `,"mults":`...), f.Mults)
	}
	if len(f.Deltas) > 0 {
		b = append(b, `,"deltas":[`...)
		for i := range f.Deltas {
			d := &f.Deltas[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, `{"view":`...), d.View)
			b = appendRows(append(b, `,"rows":`...), d.Rows)
			b = append(appendInts(append(b, `,"mults":`...), d.Mults), '}')
		}
		b = append(b, ']')
	}
	if f.From != 0 {
		b = strconv.AppendUint(append(b, `,"from":`...), f.From, 10)
	}
	if f.To != 0 {
		b = strconv.AppendUint(append(b, `,"to":`...), f.To, 10)
	}
	if f.Reason != "" {
		b = appendString(append(b, `,"reason":`...), f.Reason)
	}
	if f.Err != nil {
		we, _ := json.Marshal(f.Err) // a WireError always encodes
		b = append(append(b, `,"error":`...), we...)
	}
	return append(b, "}\n"...)
}

// rowsSize bounds the bytes of rows encoded, its brackets aside.
func rowsSize(rows [][]int64) int {
	n := 0
	for _, row := range rows {
		n += 5 + 21*len(row)
	}
	return n
}

// AppendOps appends the op lines of ops to b, each as json.Encoder.Encode
// writes it — {"rel":"R","row":[1,10],"mult":1} and a newline — and returns
// the extended buffer, grown at most once.
func AppendOps(b []byte, ops []Op) []byte {
	size := len(b)
	for i := range ops {
		size += 32 + 6*len(ops[i].Rel) + 21*len(ops[i].Row) + 21
	}
	if cap(b) < size {
		b = append(make([]byte, 0, size), b...)
	}
	for i := range ops {
		b = appendString(append(b, `{"rel":`...), ops[i].Rel)
		b = appendInts(append(b, `,"row":`...), ops[i].Row)
		b = strconv.AppendInt(append(b, `,"mult":`...), ops[i].Mult, 10)
		b = append(b, "}\n"...)
	}
	return b
}

// appendString appends s as json.Marshal encodes it. A string of printable
// ASCII without a quote, a backslash or one of the characters json escapes
// for HTML (<, > and &) is its own encoding; any other goes through
// json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendRows appends rows as a JSON array, a nil row or a nil rows as null.
func appendRows(b []byte, rows [][]int64) []byte {
	if rows == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInts(b, row)
	}
	return append(b, ']')
}

// appendInts appends vs as a JSON array, or null when vs is nil.
func appendInts(b []byte, vs []int64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}

// DecodeCommitReply decodes the body of a successful POST /v1/commit as a
// json.Decoder decodes its first value, without encoding/json when the body
// opens with the server's line.
func DecodeCommitReply(body []byte) (CommitReply, error) {
	s := rowScan{data: body}
	if s.lit(`{"epoch":`) {
		epoch, ok := s.unsigned()
		if ok && s.lit(`,"ops":`) {
			if n, ok := s.signed(); ok && int64(int(n)) == n && s.char('}') {
				return CommitReply{Epoch: epoch, Ops: int(n)}, nil
			}
		}
	}
	var cr CommitReply
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&cr)
	return cr, err
}

// The decoders below take a line in the form the writers above write: the
// keys in their order, no whitespace between them, and names without
// escapes, control characters or invalid UTF-8. What they accept, they decode
// as json.Unmarshal does — a null row or list as nil, [] as an empty slice,
// null as a zero number inside a list — except where a doc comment says
// otherwise. For any other line they return false and leave their Frame or
// Op as it was: the caller decodes that line through encoding/json.

// decodeRowsFrame decodes line, one frame without its newline, into f when
// it is a rows frame in the writer's form: the keys type, view, rows and
// mults, the last three optional. It fills f's row headers, value array and
// mults in place when they are large enough, so that a reader decoding every
// frame into one Frame allocates nothing once they are — and the rows of the
// previous frame are overwritten. An absent rows or mults key leaves an empty
// slice, not nil.
func decodeRowsFrame(line []byte, f *Frame) bool {
	s := rowScan{data: line}
	if !s.lit(`{"type":"rows"`) {
		return false
	}
	var view []byte
	if s.lit(`,"view":`) {
		var ok bool
		if view, ok = s.str(); !ok {
			return false
		}
	}
	// The count passes check the grammar; a list the line leaves out counts
	// as empty.
	var rows, mults rowScan
	if s.lit(`,"rows":`) {
		if rows.data = line[s.i:]; !rows.list(true) {
			return false
		}
		s.i += rows.i
	}
	if s.lit(`,"mults":`) {
		if mults.data = line[s.i:]; !mults.list(false) {
			return false
		}
		s.i += mults.i
	}
	if !s.end() {
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

// decodeReadyFrame decodes line into f when it is a ready frame in the
// writer's form: the keys type, epoch and count, the last two optional.
func decodeReadyFrame(line []byte, f *Frame) bool {
	s := rowScan{data: line}
	if !s.lit(`{"type":"ready"`) {
		return false
	}
	g := Frame{Type: FrameReady}
	var ok bool
	if s.lit(`,"epoch":`) {
		if g.Epoch, ok = s.unsigned(); !ok {
			return false
		}
	}
	if s.lit(`,"count":`) {
		var n int64
		if n, ok = s.signed(); !ok || int64(int(n)) != n {
			return false
		}
		g.Count = int(n)
	}
	if !s.end() {
		return false
	}
	*f = g
	return true
}

// decodeEventFrame decodes line into f when it is an event frame in the
// writer's form: the keys type, epoch and deltas, the last two optional, and
// each delta's keys view, rows and mults, all three there. A count pass sizes
// three new arrays — the deltas, their row headers, and their values and
// mults — which the fill pass fills, so the event is the caller's. A view name
// that names holds is shared with it, and a new one is added while it holds
// fewer than maxNames; names may be nil.
func decodeEventFrame(line []byte, f *Frame, names *[]string) bool {
	s := rowScan{data: line}
	if !s.lit(`{"type":"event"`) {
		return false
	}
	g := Frame{Type: FrameEvent}
	if s.lit(`,"epoch":`) {
		var ok bool
		if g.Epoch, ok = s.unsigned(); !ok {
			return false
		}
	}
	from := -1
	if s.lit(`,"deltas":`) {
		if from = s.i; !s.deltas() {
			return false
		}
	}
	end := s.i
	if !s.end() {
		return false
	}
	if from >= 0 {
		fill := rowScan{data: line[:end], i: from, names: names,
			rows: make([][]int64, s.nRows), vals: make([]int64, s.nVals), out: make([]Delta, s.nDeltas)}
		fill.deltas()
		g.Deltas = fill.out
	}
	*f = g
	return true
}

// decodeOp decodes the op at the start of s.data[s.i:] when it is in the
// client's form: the keys rel, row and mult, the last optional (+1 when it is
// not there), rel a nonempty name and row null or a list of numbers. A count
// pass (s.vals nil) only checks and counts the values; a fill pass stores the
// row as the next values of s.vals and shares the name with s.names. On
// false, s.i may be anywhere.
func (s *rowScan) decodeOp(op *Op) bool {
	if !s.lit(`{"rel":`) {
		return false
	}
	rel, ok := s.str()
	if !ok || len(rel) == 0 || !s.lit(`,"row":`) {
		return false
	}
	from := s.nVals
	var row []int64
	if !s.null() {
		if !s.list(false) {
			return false
		}
		if s.vals != nil {
			row = s.vals[from:s.nVals:s.nVals]
		}
	}
	mult := int64(1)
	if s.lit(`,"mult":`) {
		if mult, ok = s.signed(); !ok {
			return false
		}
	}
	if !s.char('}') {
		return false
	}
	if s.vals != nil {
		*op = Op{Rel: s.name(rel), Row: row, Mult: mult}
	}
	return true
}

// maxNames bounds the names a stream's decoder keeps to share.
const maxNames = 64

// rowScan is one pass over a line of the writer's form, or over part of one:
// it checks the grammar and counts the rows, values and deltas and, in a
// fill pass, also stores them — every row, when rows is set, as the next
// values of vals, and every delta, when out is set, into out.
type rowScan struct {
	data                  []byte
	i                     int
	rows                  [][]int64
	vals                  []int64
	out                   []Delta
	names                 *[]string
	nRows, nVals, nDeltas int
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

// lit consumes lit if the input continues with it.
func (s *rowScan) lit(lit string) bool {
	if len(s.data)-s.i < len(lit) || string(s.data[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// char consumes c if it is the next byte: the one-byte lit of the scans'
// inner loops.
func (s *rowScan) char(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// end consumes the "}" that closes a line, and reports whether the line ends
// there.
func (s *rowScan) end() bool { return s.char('}') && s.i == len(s.data) }

func (s *rowScan) null() bool { return s.peek() == 'n' && s.lit("null") }

// space consumes the whitespace encoding/json skips between values.
func (s *rowScan) space() {
	for c := s.peek(); c == ' ' || c == '\t' || c == '\r' || c == '\n'; c = s.peek() {
		s.i++
	}
}

// str consumes a string without escapes or control characters whose bytes
// are valid UTF-8, and returns its bytes.
func (s *rowScan) str() ([]byte, bool) {
	if s.peek() != '"' {
		return nil, false
	}
	start := s.i + 1
	end := start
	for end < len(s.data) && s.data[end] != '"' && s.data[end] != '\\' && s.data[end] >= 0x20 {
		end++
	}
	if end == len(s.data) || s.data[end] != '"' || !utf8.Valid(s.data[start:end]) {
		return nil, false
	}
	s.i = end + 1
	return s.data[start:end], true
}

// name returns name as a string: the one in s.names that equals it, or a new
// one, which s.names keeps while it holds fewer than maxNames.
func (s *rowScan) name(name []byte) string {
	if s.names == nil {
		return string(name)
	}
	for _, n := range *s.names {
		if n == string(name) {
			return n
		}
	}
	n := string(name)
	if len(*s.names) < maxNames {
		*s.names = append(*s.names, n)
	}
	return n
}

// list consumes "[]" or "[" elem ("," elem)* "]", the elements being rows in
// the outer list and numbers in a row's, and reports whether the input had
// that shape.
func (s *rowScan) list(outer bool) bool {
	if !s.char('[') {
		return false
	}
	if s.char(']') {
		return true
	}
	for {
		if outer && !s.row() || !outer && !s.number() {
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

// number consumes one element of an integer list: null (the zero value, as
// in encoding/json) or a number within int64.
func (s *rowScan) number() bool {
	var v int64
	if !s.null() {
		var ok bool
		if v, ok = s.signed(); !ok {
			return false
		}
	}
	if s.vals != nil {
		s.vals[s.nVals] = v
	}
	s.nVals++
	return true
}

// deltas consumes the list of an event frame's deltas.
func (s *rowScan) deltas() bool {
	if !s.char('[') {
		return false
	}
	if s.char(']') {
		return true
	}
	for {
		if !s.delta() {
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

// delta consumes one delta, {"view":…,"rows":…,"mults":…}, its rows and
// mults each null or a list.
func (s *rowScan) delta() bool {
	if !s.lit(`{"view":`) {
		return false
	}
	view, ok := s.str()
	if !ok || !s.lit(`,"rows":`) {
		return false
	}
	var rows [][]int64
	if from := s.nRows; !s.null() {
		if !s.list(true) {
			return false
		}
		if s.rows != nil {
			rows = s.rows[from:s.nRows:s.nRows]
		}
	}
	if !s.lit(`,"mults":`) {
		return false
	}
	var mults []int64
	if from := s.nVals; !s.null() {
		if !s.list(false) {
			return false
		}
		if s.vals != nil {
			mults = s.vals[from:s.nVals:s.nVals]
		}
	}
	if !s.char('}') {
		return false
	}
	if s.out != nil {
		s.out[s.nDeltas] = Delta{View: s.name(view), Rows: rows, Mults: mults}
	}
	s.nDeltas++
	return true
}

// signed consumes "-"? ("0" | [1-9][0-9]*) within int64; a fraction or
// exponent after it is left for the caller's next check to fail.
func (s *rowScan) signed() (int64, bool) {
	if s.char('-') {
		u, ok := s.digits(math.MaxInt64 + 1)
		return -int64(u), ok
	}
	u, ok := s.digits(math.MaxInt64)
	return int64(u), ok
}

// unsigned consumes "0" | [1-9][0-9]* within uint64.
func (s *rowScan) unsigned() (uint64, bool) { return s.digits(math.MaxUint64) }

// digits consumes "0" | [1-9][0-9]* whose value is at most limit.
func (s *rowScan) digits(limit uint64) (uint64, bool) {
	var u uint64
	start := s.i
	for ; s.peek() >= '0' && s.peek() <= '9'; s.i++ {
		d := uint64(s.data[s.i] - '0')
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if s.i == start || s.data[start] == '0' && s.i-start > 1 {
		return 0, false // no digits, or a leading zero
	}
	return u, true
}
