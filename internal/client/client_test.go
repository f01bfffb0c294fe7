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
	"slices"
	"strings"
	"sync"
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
				got = append(got, slices.Clone(row))
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

// TestTruncatedWatchIsAnError: a watch stream cut inside its anchor, in a
// frame or between frames, fails Watch; one cut inside an event, or broken
// by a blank line, makes Events yield the events before the cut and then
// exactly one error.
func TestTruncatedWatchIsAnError(t *testing.T) {
	const anchor = `{"type":"anchor","epoch":2,"views":["V"]}` + "\n" + `{"type":"rows","view":"V","rows":[[1,2]],"mults":[1]}` + "\n"
	const event = `{"type":"event","epoch":3,"deltas":[{"view":"V","rows":[[3,4]],"mults":[1]}]}` + "\n"
	for _, tc := range []struct{ name, body string }{
		{"cut inside a frame", anchor + `{"type":"rows","view":"V","rows":[[5,`},
		{"cut between frames", anchor},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := serve(t, func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, tc.body) })
			w, err := c.Watch(context.Background(), WatchOptions{})
			if err == nil {
				w.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "ended during anchor") {
				t.Fatalf("Watch = %v; want an error saying the stream ended during the anchor", err)
			}
		})
	}
	for _, tc := range []struct{ name, body string }{
		{"cut inside an event", anchor + `{"type":"ready","epoch":2}` + "\n" + event + `{"type":"event","epoch":4,"deltas":[`},
		{"blank line", anchor + `{"type":"ready","epoch":2}` + "\n" + event + "\n" + event},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := serve(t, func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, tc.body) })
			w, err := c.Watch(context.Background(), WatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if rows, mults, ok := w.AnchorRows("V"); !ok || !reflect.DeepEqual(rows, [][]int64{{1, 2}}) || !reflect.DeepEqual(mults, []int64{1}) {
				t.Fatalf("AnchorRows = %v, %v, %v", rows, mults, ok)
			}
			var epochs []uint64
			var errs []error
			for ev, err := range w.Events() {
				if err != nil {
					errs = append(errs, err)
				} else {
					epochs = append(epochs, ev.Epoch)
				}
			}
			if !reflect.DeepEqual(epochs, []uint64{3}) || len(errs) != 1 || !strings.Contains(errs[0].Error(), "watch stream dropped") {
				t.Fatalf("Events yielded epochs %v and errors %v; want epoch 3 and one error saying the stream dropped", epochs, errs)
			}
			if w.Drained() {
				t.Fatal("a dropped stream reports Drained")
			}
		})
	}
}

// TestReadDecodeAllocatesPerFrame bounds what decoding one more 2 048-row
// rows frame costs the client: nothing. The frame is in the form the server
// writes, so it decodes into the previous frame's row headers, values and
// mults (server.FrameReader), and the line is read out of the stream's
// one buffer — where a slice grown per row made a frame cost over 6 000
// allocations, and a fresh frame through encoding/json 4.
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
	decode := func(body []byte, yield func([]int64, int64) bool) {
		epoch, closed, err := readRows(server.NewFrameReader(bytes.NewReader(body)), yield)
		if err != nil || !closed || epoch != 3 {
			t.Fatalf("readRows = %d, %v, %v", epoch, closed, err)
		}
	}
	var rows [][]int64
	var mults []int64
	decode(stream(1), func(row []int64, mult int64) bool {
		rows, mults = append(rows, slices.Clone(row)), append(mults, mult)
		return true
	})
	if !reflect.DeepEqual(rows, [][]int64(frame.Rows)) || !reflect.DeepEqual(mults, frame.Mults) {
		t.Fatal("the frame does not decode to what was encoded")
	}
	read := func(body []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			decode(body, func([]int64, int64) bool { return true })
		})
	}
	one := read(stream(1))
	const more = 32
	perFrame := (read(stream(1+more)) - one) / more
	t.Logf("reading a one-frame stream: %.0f allocations; each further %d-row frame: %.2f", one, len(frame.Rows), perFrame)
	if perFrame > 0 {
		t.Errorf("each further %d-row frame allocates %.2f times, want 0", len(frame.Rows), perFrame)
	}
}

// TestRowsOwnsItsRows: the rows Rows returns are the caller's. A read of
// two frames returns the rows of both, although the read decodes them into
// one reused frame, and a second read on the same client leaves them as
// they were.
func TestRowsOwnsItsRows(t *testing.T) {
	var reads atomic.Int64
	c := serve(t, func(w http.ResponseWriter, r *http.Request) {
		n := reads.Add(1)
		writeFrames(w,
			server.Frame{Type: server.FrameRows, Rows: [][]int64{{n, 1}, {n, 2}}, Mults: []int64{1, 2}},
			server.Frame{Type: server.FrameRows, Rows: [][]int64{{n, 3}}, Mults: []int64{3}},
			server.Frame{Type: server.FrameReady, Epoch: uint64(n), Count: 3})
	})
	want := [][]int64{{1, 1}, {1, 2}, {1, 3}}
	rows, mults, _, err := c.Rows(context.Background(), "")
	if err != nil || !reflect.DeepEqual(rows, want) || !reflect.DeepEqual(mults, []int64{1, 2, 3}) {
		t.Fatalf("Rows = %v, %v, %v; want %v, [1 2 3]", rows, mults, err, want)
	}
	again, _, _, err := c.Rows(context.Background(), "")
	if err != nil || !reflect.DeepEqual(again, [][]int64{{2, 1}, {2, 2}, {2, 3}}) {
		t.Fatalf("the second Rows = %v, %v", again, err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("the first read's rows are %v after a second read, want %v", rows, want)
	}
}

// TestHotLinesSkipEncodingJSON drives commits, reads and a watch through the
// client against a real server, and checks that no hot line went through
// encoding/json on either end: the server's ivmd_commit_ops_json_total stays
// 0, and so do the Fallbacks of the client's read reader and of the watch's.
// The two ends' fast forms are written separately — AppendOps against
// decodeOp, the frame encoder against the frame decoders — so a change to one
// that the other does not follow would show only here: every test that
// compares results still passes through the fallback. A commit body in
// another form then moves the counter.
func TestHotLinesSkipEncodingJSON(t *testing.T) {
	eng, err := ivmeps.New(ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)"), ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(server.New(eng, server.Options{}))
	defer hs.Close()
	c, err := New(hs.URL, Options{PageLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	commit := func(b *Batch) {
		if _, err := c.Commit(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	jsonOps := func() string {
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, "ivmd_commit_ops_json_total "); ok {
				return v
			}
		}
		t.Fatalf("/metrics has no ivmd_commit_ops_json_total:\n%s", body)
		return ""
	}

	commit(c.NewBatch().Insert("R", []int64{1, 1}).Insert("R", []int64{2, 1}).Insert("R", []int64{3, 1}).Insert("S", []int64{1, 7}))
	w, err := c.Watch(ctx, WatchOptions{}) // a full anchor: anchor, rows and ready frames
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	commit(c.NewBatch().Apply("S", []int64{1, 8}, 2).Delete("R", []int64{2, 1}))
	commit(c.NewBatch().Insert("R", []int64{9, 5}))
	events := 0
	for ev, err := range w.Events() {
		if err != nil {
			t.Fatal(err)
		}
		if events++; ev.Epoch != w.Epoch()+uint64(events) {
			t.Fatalf("event %d has epoch %d after anchor %d", events, ev.Epoch, w.Epoch())
		}
		if events == 2 {
			break
		}
	}
	if _, _, _, err := c.Rows(ctx, ""); err != nil {
		t.Fatal(err)
	}
	seq, errf := c.All(ctx, eng.Views()[0])
	for range seq {
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}

	if n := jsonOps(); n != "0" {
		t.Errorf("the server decoded %s of the client's ops through encoding/json, want 0", n)
	}
	if n := c.frames.Load().Fallbacks(); n != 0 {
		t.Errorf("the client's reads decoded %d frames through encoding/json, want 0", n)
	}
	if n := w.frames.Fallbacks(); n != 0 {
		t.Errorf("the watch decoded %d frames through encoding/json, want 0", n)
	}

	resp, err := http.Post(hs.URL+"/v1/commit", "application/x-ndjson", strings.NewReader(`{"row":[4,1],"rel":"R"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a commit in another form: %s", resp.Status)
	}
	if n := jsonOps(); n != "1" {
		t.Errorf("after one op in another form, ivmd_commit_ops_json_total reads %s, want 1", n)
	}
}

// TestOverlappingReadsShareOneClient reads one result from four goroutines
// at once through one client, by Rows and by All, while the client hands its
// one kept FrameReader from read to read: a read that finds it taken makes
// its own, and no read sees another's rows.
func TestOverlappingReadsShareOneClient(t *testing.T) {
	eng, err := ivmeps.New(ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)"), ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(server.New(eng, server.Options{}))
	defer hs.Close()
	c, err := New(hs.URL, Options{PageLimit: 7})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	b := c.NewBatch().Insert("S", []int64{0, 1})
	for i := int64(0); i < n; i++ {
		b.Insert("R", []int64{i, 0})
	}
	if _, err := c.Commit(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	const want = n * (n - 1) / 2 // the sum of A over the result
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 25 {
				sum := int64(0)
				if g%2 == 0 {
					rows, _, _, err := c.Rows(context.Background(), "")
					if err != nil {
						t.Error(err)
						return
					}
					for _, row := range rows {
						sum += row[0]
					}
				} else {
					seq, errf := c.All(context.Background(), "")
					for row := range seq {
						sum += row[0]
					}
					if err := errf(); err != nil {
						t.Error(err)
						return
					}
				}
				if sum != want {
					t.Errorf("a read sums A to %d, want %d", sum, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
