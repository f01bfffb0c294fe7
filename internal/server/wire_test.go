package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

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
