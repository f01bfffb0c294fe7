package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"

	"ivmeps/internal/client"
	"ivmeps/internal/server"
)

// wireExamples pairs one value of every wire type, built the way the
// handlers build it, with the exact line the service writes for it. Server
// and client share these structs, so a mistyped JSON tag would still pass
// every test that talks Go to Go; the literals are what curl consumers and
// docs/SERVICE.md see.
var wireExamples = []struct {
	name string
	val  any // pointer to the value
	wire string
}{
	{"anchor frame",
		&server.Frame{Type: server.FrameAnchor, Epoch: 2, Views: []string{"VB_9", "VB_10"}},
		`{"type":"anchor","epoch":2,"views":["VB_9","VB_10"]}`},
	{"anchor frame, resumed",
		&server.Frame{Type: server.FrameAnchor, Epoch: 2, Views: []string{"VB_10"}, Resume: true},
		`{"type":"anchor","epoch":2,"views":["VB_10"],"resume":true}`},
	{"rows frame",
		&server.Frame{Type: server.FrameRows, View: "VB_10", Rows: [][]int64{{1, 3}}, Mults: []int64{1}},
		`{"type":"rows","view":"VB_10","rows":[[1,3]],"mults":[1]}`},
	{"rows frame, empty view",
		&server.Frame{Type: server.FrameRows, View: "VB_9", Rows: [][]int64{}, Mults: []int64{}},
		`{"type":"rows","view":"VB_9"}`},
	{"ready frame",
		&server.Frame{Type: server.FrameReady, Epoch: 2},
		`{"type":"ready","epoch":2}`},
	{"event frame",
		&server.Frame{Type: server.FrameEvent, Epoch: 3, Deltas: []server.Delta{{View: "VB_10", Rows: [][]int64{{4, 3}}, Mults: []int64{1}}}},
		`{"type":"event","epoch":3,"deltas":[{"view":"VB_10","rows":[[4,3]],"mults":[1]}]}`},
	{"event frame, no deltas",
		&server.Frame{Type: server.FrameEvent, Epoch: 4, Deltas: []server.Delta{}},
		`{"type":"event","epoch":4}`},
	{"lagged frame",
		&server.Frame{Type: server.FrameLagged, From: 70, To: 75},
		`{"type":"lagged","from":70,"to":75}`},
	{"end frame",
		&server.Frame{Type: server.FrameEnd, Epoch: 75, Reason: "draining"},
		`{"type":"end","epoch":75,"reason":"draining"}`},
	{"error frame",
		&server.Frame{Type: server.FrameError, Err: &server.WireError{Code: server.CodeInternal, Message: "boom"}},
		`{"type":"error","error":{"code":"internal","message":"boom"}}`},
	{"rows frame of a result read",
		&server.Frame{Type: server.FrameRows, Rows: [][]int64{{1, 3}}, Mults: []int64{1}},
		`{"type":"rows","rows":[[1,3]],"mults":[1]}`},
	{"ready frame closing a read",
		&server.Frame{Type: server.FrameReady, Epoch: 2, Count: 1},
		`{"type":"ready","epoch":2,"count":1}`},
	{"commit reply",
		&server.CommitReply{Epoch: 2, Ops: 2},
		`{"epoch":2,"ops":2}`},
	{"stats reply",
		&server.StatsReply{Query: "Q(A, C) = R(A, B), S(B, C)", Epoch: 2, N: 2, Views: []string{"VB_9", "VB_10"}, Watchers: 1,
			Engine: server.EngineStats{Updates: 2, MinorRebalances: 1, MajorRebalances: 1, ViewDeltas: 3, Batches: 1, BatchRelations: 2}},
		`{"query":"Q(A, C) = R(A, B), S(B, C)","epoch":2,"n":2,"views":["VB_9","VB_10"],"watchers":1,"readers":0,"draining":false,` +
			`"engine":{"updates":2,"minor_rebalances":1,"major_rebalances":1,"view_deltas":3,"batches":1,"batch_relations":2}}`},
}

// errorEnvelopeWire is the body of every non-2xx response; the envelope has
// no exported type, so the example is taken from a handler.
const errorEnvelopeWire = `{"error":{"code":"bad_request","message":"bad limit \"0\""}}`

// TestWireBytes encodes each example and compares the bytes with its
// literal, then decodes the literal and encodes it again: both directions
// of every tag.
func TestWireBytes(t *testing.T) {
	for _, ex := range wireExamples {
		got, err := json.Marshal(ex.val)
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		if string(got) != ex.wire {
			t.Errorf("%s encodes as\n %s\nwant\n %s", ex.name, got, ex.wire)
		}
		back := reflect.New(reflect.TypeOf(ex.val).Elem()).Interface()
		if err := json.Unmarshal([]byte(ex.wire), back); err != nil {
			t.Fatalf("%s: decoding its literal: %v", ex.name, err)
		}
		if again, _ := json.Marshal(back); string(again) != ex.wire {
			t.Errorf("%s decodes and re-encodes as\n %s\nwant\n %s", ex.name, again, ex.wire)
		}
	}

	_, srv, _ := newStack(t, server.Options{}, client.Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/result/rows?limit=0", nil))
	if got := strings.TrimSuffix(rec.Body.String(), "\n"); rec.Code != http.StatusBadRequest || got != errorEnvelopeWire {
		t.Errorf("error envelope is %d\n %s\nwant 400\n %s", rec.Code, got, errorEnvelopeWire)
	}
	var env struct {
		Error *server.WireError `json:"error"`
	}
	if err := json.Unmarshal([]byte(errorEnvelopeWire), &env); err != nil || env.Error == nil ||
		env.Error.Code != server.CodeBadRequest || env.Error.Message != `bad limit "0"` {
		t.Errorf("error envelope decodes to %+v (%v)", env.Error, err)
	}
}

// TestWireExamplesAreDocumented keeps docs/SERVICE.md printing the lines
// TestWireBytes pins.
func TestWireExamplesAreDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{errorEnvelopeWire}
	for _, ex := range wireExamples {
		lines = append(lines, ex.wire)
	}
	for _, l := range lines {
		if !strings.Contains(string(doc), l) {
			t.Errorf("docs/SERVICE.md does not print %s", l)
		}
	}
}

// TestEncodeFrameMatchesJSON holds the frame writer's encoder, which writes
// every frame a stream carries, to encoding/json: on each frame of
// wireExamples, and on frames with names that need escaping, empty and
// extreme fields, and fields no handler combines. FuzzRowsFrame and
// FuzzEventFrame fuzz the rows, ready and event frames.
func TestEncodeFrameMatchesJSON(t *testing.T) {
	frames := []*server.Frame{
		{},
		{Type: server.FrameAnchor, Views: []string{}},
		{Type: server.FrameAnchor, Epoch: 1, Views: []string{"<a&b>", "é\"\\", "", "\x00\xff"}, Resume: true},
		{Type: server.FrameLagged, From: math.MaxUint64},
		{Type: server.FrameLagged, To: 1},
		{Type: server.FrameEnd, Reason: "line\nbreak <&>"},
		{Type: server.FrameError, Err: &server.WireError{}},
		{Type: server.FrameError, Err: &server.WireError{Code: server.CodeInternal, Message: "\"quoted\" <&>", Relation: "R",
			Row: []int64{math.MinInt64, 0}, Schema: []string{"A", "B"}, Have: -1, Delta: math.MaxInt64}},
		{Type: "x\"<", Epoch: math.MaxUint64, Count: -1, Views: []string{"V"}, Resume: true, View: "V",
			Rows: [][]int64{nil, {}, {1, -2}}, Mults: []int64{1, 0, -1},
			Deltas: []server.Delta{{}, {View: "W", Rows: [][]int64{}, Mults: []int64{}}}, From: 2, To: 3, Reason: "r",
			Err: &server.WireError{Code: server.CodeGone, Message: "m"}},
	}
	for _, ex := range wireExamples {
		if f, ok := ex.val.(*server.Frame); ok {
			frames = append(frames, f)
		}
	}
	for _, f := range frames {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := server.EncodeFrame(f); string(got) != string(want)+"\n" {
			t.Errorf("%+v: the frame writer writes\n %s\nencoding/json\n %s", *f, got, want)
		}
	}
}

// TestFrameReader reads whole streams through a FrameReader: the frames in
// order and then io.EOF, or the error that breaks the stream. FuzzRowsFrame
// holds each line's decoding to encoding/json; these cases are the stream's
// own rules — line framing, lines longer than the reader's buffer, the
// decoder's offsets across lines, and the underlying reader's errors.
func TestFrameReader(t *testing.T) {
	const (
		rows   = `{"type":"rows","view":"V","rows":[[1,2],[3,4]],"mults":[1,-1]}`
		anchor = `{"type":"anchor","epoch":2,"views":["V"]}`
		event  = `{"type":"event","epoch":3,"deltas":[{"view":"V","rows":[[5,6]],"mults":[2]}]}`
		ready  = `{"type":"ready","epoch":2,"count":2}`
	)
	var long strings.Builder // one rows frame of about 170 KB, past the 64 KiB buffer
	long.WriteString(`{"type":"rows","view":"V","rows":[`)
	for i := range 10000 {
		if i > 0 {
			long.WriteByte(',')
		}
		fmt.Fprintf(&long, "[%d,%d]", i, i*1000003)
	}
	long.WriteString(`],"mults":[1` + strings.Repeat(",1", 9999) + `]}`)
	errBoom := errors.New("boom")

	for _, tc := range []struct {
		name    string
		in      io.Reader
		want    []string // the frames, as json.Marshal writes them
		wantErr string   // "" for io.EOF after the frames
	}{
		{"empty stream", strings.NewReader(""), nil, ""},
		{"frames of both paths",
			strings.NewReader(anchor + "\n" + rows + "\n" + ready + "\n" + event + "\n" + rows + "\n"),
			[]string{anchor, rows, ready, event, rows}, ""},
		{"last line without its newline",
			strings.NewReader(anchor + "\n" + ready),
			[]string{anchor, ready}, ""},
		{"CRLF line ends",
			strings.NewReader(anchor + "\r\n" + rows + "\r\n"),
			[]string{anchor, rows}, ""},
		{"lines longer than the buffer",
			strings.NewReader(long.String() + "\n" + rows + "\n" + long.String() + "\n" + ready + "\n"),
			[]string{long.String(), rows, long.String(), ready}, ""},
		{"unknown frame type",
			strings.NewReader(`{"type":"hint","epoch":7}` + "\n" + ready + "\n"),
			[]string{`{"type":"hint","epoch":7}`, ready}, ""},
		{"blank line",
			strings.NewReader(anchor + "\n\n" + ready + "\n"),
			[]string{anchor}, "blank line"},
		{"line that continues after its frame",
			strings.NewReader(anchor + "\n" + event + "\n" + anchor + "\n" + ready + ` {}` + "\n"),
			[]string{anchor, event, anchor}, "continues after its frame"},
		{"frame without a type",
			strings.NewReader(anchor + "\n" + `{"epoch":2}` + "\n"),
			[]string{anchor}, "without a type"},
		{"rows and mults differ, fast path",
			strings.NewReader(`{"type":"rows","rows":[[1],[2]],"mults":[1]}` + "\n"),
			nil, "2 rows and 1 mults"},
		{"rows and mults differ, JSON path",
			strings.NewReader(`{"type":"rows", "rows":[[1]]}` + "\n"),
			nil, "1 rows and 0 mults"},
		{"truncated last line",
			strings.NewReader(anchor + "\n" + rows[:len(rows)/2]),
			[]string{anchor}, "unexpected EOF"},
		{"reader error",
			io.MultiReader(strings.NewReader(rows+"\n"+ready[:5]), iotest.ErrReader(errBoom)),
			[]string{rows}, "boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frames := server.NewFrameReader(tc.in)
			for i, want := range tc.want {
				f, err := frames.Next()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if got, _ := json.Marshal(f); string(got) != want {
					t.Fatalf("frame %d reads as\n %.200s\nwant\n %.200s", i, got, want)
				}
			}
			f, err := frames.Next()
			switch {
			case tc.wantErr == "" && err != io.EOF:
				t.Fatalf("after the frames, Next reads %+v, %v; want io.EOF", f, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("after the frames, Next reads %+v, %v; want an error with %q", f, err, tc.wantErr)
			case tc.wantErr == "boom" && !errors.Is(err, errBoom):
				t.Fatalf("Next returns %v, not the reader's error", err)
			}
		})
	}
}

// TestEventDecodeAllocates bounds what one more event frame costs a
// FrameReader: at most three allocations — the deltas, their row headers,
// and their values and mults — however many rows it carries, where
// encoding/json allocated every row and grew every list. The view names are
// the stream's, shared from the first event on, and an event stays the
// caller's after the next one is read.
func TestEventDecodeAllocates(t *testing.T) {
	event := func(epoch uint64, rows int) string {
		f := server.Frame{Type: server.FrameEvent, Epoch: epoch}
		for _, view := range []string{"VB_9", "VB_10"} {
			d := server.Delta{View: view}
			for i := range rows {
				d.Rows = append(d.Rows, []int64{int64(i), int64(epoch)})
				d.Mults = append(d.Mults, 1-2*int64(i%2))
			}
			f.Deltas = append(f.Deltas, d)
		}
		line, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		return string(line) + "\n"
	}
	stream := func(events, rows int) string {
		var b strings.Builder
		b.WriteString(`{"type":"anchor","epoch":1,"views":["VB_9","VB_10"],"resume":true}` + "\n" + `{"type":"ready","epoch":1}` + "\n")
		for i := range events {
			b.WriteString(event(uint64(2+i), rows))
		}
		return b.String()
	}

	frames := server.NewFrameReader(strings.NewReader(stream(2, 3)))
	var first *server.Frame
	for range 3 {
		f, err := frames.Next()
		if err != nil {
			t.Fatal(err)
		}
		first = f
	}
	kept := first.Deltas
	want, _ := json.Marshal(kept)
	if _, err := frames.Next(); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(kept); string(got) != string(want) || string(got) == "null" {
		t.Fatalf("an event's deltas read %s after the next event, were %s", got, want)
	}

	// A garbage collection allocates a little of its own, and reading the
	// larger events runs more of them: the count is taken without.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	read := func(s string) float64 {
		return testing.AllocsPerRun(10, func() {
			frames := server.NewFrameReader(strings.NewReader(s))
			for {
				if _, err := frames.Next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			if frames.Fallbacks() != 0 {
				t.Fatalf("%d frames of the stream went through encoding/json", frames.Fallbacks())
			}
		})
	}
	for _, rows := range []int{1, 1024} {
		one := read(stream(1, rows))
		const more = 32
		perEvent := (read(stream(1+more, rows)) - one) / more
		t.Logf("a stream of one event of 2 × %d rows: %.0f allocations; each further event: %.2f", rows, one, perEvent)
		if perEvent > 3 {
			t.Errorf("each further event of 2 × %d rows allocates %.2f times, want at most 3", rows, perEvent)
		}
	}
}

// TestDecodeOpsAllocates bounds what DecodeOps allocates per op of a body in
// the client's form: nothing. A 32-op body and a 512-op body differ at most
// by four allocations — the arrays of ops and values are each one
// allocation, sized by the count pass, and the body is read into a pooled
// buffer — where a json.Decoder allocated every row.
func TestDecodeOpsAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the body buffer at random under -race")
	}
	body := func(n int) []byte {
		ops := make([]server.Op, n)
		for i := range ops {
			ops[i] = server.Op{Rel: []string{"R", "S"}[i%2], Row: []int64{int64(i), int64(i % 4)}, Mult: 1 - 2*int64(i%2)}
		}
		return server.AppendOps(nil, ops)
	}
	decode := func(b []byte, n int) float64 {
		return testing.AllocsPerRun(20, func() {
			ops, err := server.DecodeOps(bytes.NewReader(b), 0)
			if err != nil || len(ops) != n || ops[n-1].Rel != "S" || ops[n-1].Mult != -1 {
				t.Fatalf("DecodeOps = %d ops, %v", len(ops), err)
			}
		})
	}
	small, large := decode(body(32), 32), decode(body(512), 512)
	t.Logf("a 32-op body: %.0f allocations; a 512-op body: %.0f", small, large)
	if large-small > 4 {
		t.Errorf("a 512-op body allocates %.0f times, a 32-op body %.0f: want at most 4 more", large, small)
	}
}
