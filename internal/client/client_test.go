package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ivmeps"
	"ivmeps/internal/server"
)

// serve mounts h on a loopback server and returns a client for it.
func serve(t *testing.T, h http.HandlerFunc) *Client {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	c, err := New(hs.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// writeError replies the way internal/server's fail does.
func writeError(w http.ResponseWriter, err error) {
	we := server.EncodeError(err)
	w.WriteHeader(server.HTTPStatus(we.Code))
	json.NewEncoder(w).Encode(struct {
		Error *server.WireError `json:"error"`
	}{we})
}

// TestWireErrorsRoundTrip sends one error per server.Code* through
// EncodeError, an HTTP error body and decodeWireError, and checks that what
// the caller could match before the wire it can match after it.
func TestWireErrorsRoundTrip(t *testing.T) {
	isWire := func(code string) func(*testing.T, error) {
		return func(t *testing.T, got error) {
			var we *server.WireError
			if !errors.As(got, &we) || we.Code != code || we.Message != "m" {
				t.Fatalf("got %#v, want a WireError with code %s", got, code)
			}
		}
	}
	is := func(target error) func(*testing.T, error) {
		return func(t *testing.T, got error) {
			if !errors.Is(got, target) {
				t.Fatalf("errors.Is(%v, %v) = false", got, target)
			}
		}
	}
	cases := []struct {
		code  string
		sent  error
		check func(*testing.T, error)
	}{
		{server.CodeUnknownRelation, fmt.Errorf("commit: %w: %q", ivmeps.ErrUnknownRelation, "T"), is(ivmeps.ErrUnknownRelation)},
		{server.CodeStatic, fmt.Errorf("commit: %w", ivmeps.ErrStatic), is(ivmeps.ErrStatic)},
		{server.CodeNotBuilt, fmt.Errorf("rows: %w", ivmeps.ErrNotBuilt), is(ivmeps.ErrNotBuilt)},
		{server.CodeArity, &ivmeps.ArityError{Relation: "R", Row: []int64{7}, Schema: []string{"A", "B"}}, func(t *testing.T, got error) {
			var ae *ivmeps.ArityError
			want := &ivmeps.ArityError{Relation: "R", Row: []int64{7}, Schema: []string{"A", "B"}}
			if !errors.As(got, &ae) || !reflect.DeepEqual(ae, want) {
				t.Fatalf("got %#v, want %#v", got, want)
			}
		}},
		{server.CodeMultiplicity, &ivmeps.MultiplicityError{Relation: "S", Row: []int64{1, 2}, Have: 1, Delta: -3}, func(t *testing.T, got error) {
			var me *ivmeps.MultiplicityError
			want := &ivmeps.MultiplicityError{Relation: "S", Row: []int64{1, 2}, Have: 1, Delta: -3}
			if !errors.As(got, &me) || !reflect.DeepEqual(me, want) {
				t.Fatalf("got %#v, want %#v", got, want)
			}
		}},
		{server.CodeWedged, &ivmeps.LogWedgedError{Op: "sync", Err: errors.New("disk full")}, func(t *testing.T, got error) {
			var lwe *ivmeps.LogWedgedError
			if !errors.As(got, &lwe) || !strings.Contains(lwe.Error(), "disk full") {
				t.Fatalf("got %#v, want a LogWedgedError naming the cause", got)
			}
		}},
		{server.CodeBadRequest, &server.WireError{Code: server.CodeBadRequest, Message: "m"}, isWire(server.CodeBadRequest)},
		{server.CodeUnknownView, &server.WireError{Code: server.CodeUnknownView, Message: "m"}, isWire(server.CodeUnknownView)},
		{server.CodeGone, &server.WireError{Code: server.CodeGone, Message: "m"}, isWire(server.CodeGone)},
		{server.CodeDraining, &server.WireError{Code: server.CodeDraining, Message: "m"}, isWire(server.CodeDraining)},
		{server.CodeEpochAhead, &server.WireError{Code: server.CodeEpochAhead, Message: "m"}, isWire(server.CodeEpochAhead)},
		{server.CodeInternal, errors.New("m"), isWire(server.CodeInternal)},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			if got := server.EncodeError(tc.sent).Code; got != tc.code {
				t.Fatalf("EncodeError code = %s, want %s", got, tc.code)
			}
			c := serve(t, func(w http.ResponseWriter, r *http.Request) { writeError(w, tc.sent) })
			_, err := c.Stats(context.Background())
			if err == nil {
				t.Fatal("no error from an error reply")
			}
			tc.check(t, err)
		})
	}
}

func TestNewRejectsURLsWithoutSchemeOrHost(t *testing.T) {
	for _, bad := range []string{"", "localhost", "/v1", "127.0.0.1:8344", "http://", "http:///v1", "//127.0.0.1:8344"} {
		if c, err := New(bad, Options{}); err == nil {
			t.Errorf("New(%q) = %+v, want an error", bad, c)
		}
	}
	c, err := New("http://127.0.0.1:8344/", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://127.0.0.1:8344" {
		t.Fatalf("base = %q", c.base)
	}
}

// writeFrames writes NDJSON frames the way internal/server's read handler
// does.
func writeFrames(w http.ResponseWriter, frames ...server.Frame) {
	enc := json.NewEncoder(w)
	for i := range frames {
		enc.Encode(&frames[i])
	}
}

// goneAfterFirstFrame serves a two-row read whose stream the server ends
// with a gone frame after the first row for the first `gone` reads,
// counting the reads begun.
func goneAfterFirstFrame(gone int32, reads *atomic.Int32) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := reads.Add(1)
		first := server.Frame{Type: server.FrameRows, Rows: [][]int64{{int64(n), 1}}, Mults: []int64{1}}
		if n <= gone {
			writeFrames(w, first, server.Frame{Type: server.FrameError, Err: &server.WireError{Code: server.CodeGone, Message: "evicted"}})
			return
		}
		writeFrames(w, first,
			server.Frame{Type: server.FrameRows, Rows: [][]int64{{int64(n), 2}}, Mults: []int64{5}},
			server.Frame{Type: server.FrameReady, Epoch: uint64(n), Count: 2})
	}
}

func TestRowsRestartsOnGone(t *testing.T) {
	// Two evicted reads: the third read completes, and only its rows are
	// returned.
	var reads atomic.Int32
	c := serve(t, goneAfterFirstFrame(2, &reads))
	rows, mults, epoch, err := c.Rows(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if reads.Load() != 3 || epoch != 3 || !reflect.DeepEqual(rows, [][]int64{{3, 1}, {3, 2}}) || !reflect.DeepEqual(mults, []int64{1, 5}) {
		t.Fatalf("after %d reads: rows %v mults %v epoch %d", reads.Load(), rows, mults, epoch)
	}

	// A read that is always evicted: Rows gives up after the third read, and
	// All reports the first through its error function.
	reads.Store(0)
	c = serve(t, goneAfterFirstFrame(1<<30, &reads))
	rows, _, _, err = c.Rows(context.Background(), "")
	var we *server.WireError
	if !errors.As(err, &we) || we.Code != server.CodeGone || rows != nil {
		t.Fatalf("rows %v, err %v; want nil rows and a gone error", rows, err)
	}
	if reads.Load() != 3 {
		t.Fatalf("Rows began %d reads, want 3", reads.Load())
	}
	seq, errf := c.All(context.Background(), "")
	seen := 0
	for range seq {
		seen++
	}
	if err := errf(); !errors.As(err, &we) || we.Code != server.CodeGone || seen != 1 {
		t.Fatalf("All yielded %d rows and reported %v; want the first row and a gone error", seen, err)
	}
}

// TestTruncatedReadIsAnError: a stream that ends without its closing frame,
// mid-frame or between frames, or whose closing frame counts other rows than
// it carried, fails the read — through Rows, and through All's error
// function after the rows that did arrive. So does a rows frame whose mults
// do not match its rows.
func TestTruncatedReadIsAnError(t *testing.T) {
	const frame = `{"type":"rows","rows":[[1,2],[3,4]],"mults":[1,1]}` + "\n"
	arrived := [][]int64{{1, 2}, {3, 4}}
	for _, tc := range []struct {
		name, body, want string
		arrived          [][]int64
	}{
		{"no closing frame", frame, "without its closing frame", arrived},
		{"cut inside a frame", frame + `{"type":"rows","rows":[[5,`, "without its closing frame", arrived},
		{"count mismatch", frame + `{"type":"ready","epoch":2,"count":3}` + "\n", "closed at 3 rows, but carried 2", arrived},
		{"rows without mults", `{"type":"rows","rows":[[1,2],[3,4]],"mults":[1]}` + "\n", "2 rows and 1 mults", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := serve(t, func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, tc.body) })
			if got, _, _, err := c.Rows(context.Background(), ""); err == nil || !strings.Contains(err.Error(), tc.want) || got != nil {
				t.Fatalf("Rows = %v, %v; want no rows and an error saying %q", got, err, tc.want)
			}
			seq, errf := c.All(context.Background(), "")
			var got [][]int64
			for row := range seq {
				got = append(got, row)
			}
			if err := errf(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("All reported %v, want an error saying %q", err, tc.want)
			}
			if !reflect.DeepEqual(got, tc.arrived) {
				t.Fatalf("All yielded %v before the error, want %v", got, tc.arrived)
			}
		})
	}
}

// TestWatchAnchorRejectsBadRows: a watch opening with a rows frame whose
// mults do not match its rows, or with rows of a view its anchor frame did
// not list, fails Watch instead of leaving AnchorRows with unequal slices.
func TestWatchAnchorRejectsBadRows(t *testing.T) {
	const anchor = `{"type":"anchor","epoch":2,"views":["V"]}` + "\n"
	const ready = `{"type":"ready","epoch":2}` + "\n"
	for _, tc := range []struct{ name, rows, want string }{
		{"rows without mults", `{"type":"rows","view":"V","rows":[[1,2],[3,4]],"mults":[1]}`, "2 rows and 1 mults"},
		{"unlisted view", `{"type":"rows","view":"W","rows":[[1,2]],"mults":[1]}`, `view "W"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := serve(t, func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, anchor+tc.rows+"\n"+ready) })
			w, err := c.Watch(context.Background(), WatchOptions{})
			if err == nil {
				w.Close()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Watch = %v; want an error saying %q", err, tc.want)
			}
		})
	}
}

// TestReadDecodeAllocatesPerFrame bounds what decoding one more 2 048-row
// rows frame costs the client: the rows are one backing array and one slice
// of row headers (server.RowBlock), the mults are decoded into the previous
// frame's array, and what remains is the frame's type string — where a
// slice grown per row made a frame cost over 6 000 allocations, and a fresh
// mults slice 14 more.
func TestReadDecodeAllocatesPerFrame(t *testing.T) {
	frame := server.Frame{Type: server.FrameRows}
	for i := int64(0); i < 2048; i++ {
		frame.Rows = append(frame.Rows, []int64{i, 7 * i, -i})
		frame.Mults = append(frame.Mults, i%5+1)
	}
	line, err := json.Marshal(&frame)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(frames int) []byte {
		var b bytes.Buffer
		for range frames {
			b.Write(line)
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, `{"type":"ready","epoch":3,"count":%d}`+"\n", frames*len(frame.Rows))
		return b.Bytes()
	}
	var rows [][]int64
	var mults []int64
	read := func(body []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			rows, mults = rows[:0], mults[:0]
			epoch, closed, err := readRows(bytes.NewReader(body), func(row []int64, mult int64) bool {
				rows, mults = append(rows, row), append(mults, mult)
				return true
			})
			if err != nil || !closed || epoch != 3 {
				t.Fatalf("readRows = %d, %v, %v", epoch, closed, err)
			}
		})
	}
	one := read(stream(1))
	if !reflect.DeepEqual(rows, [][]int64(frame.Rows)) || !reflect.DeepEqual(mults, frame.Mults) {
		t.Fatal("the frame does not decode to what was encoded")
	}
	const more = 32
	perFrame := (read(stream(1+more)) - one) / more
	t.Logf("reading a one-frame stream: %.0f allocations; each further %d-row frame: %.2f", one, len(frame.Rows), perFrame)
	if perFrame > 4 {
		t.Errorf("each further %d-row frame allocates %.2f times, want at most 4", len(frame.Rows), perFrame)
	}
}
