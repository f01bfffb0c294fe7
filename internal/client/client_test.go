package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// goneAfterFirstPage serves a two-page result whose second page is gone
// for the first `gone` reads, counting the reads begun.
func goneAfterFirstPage(gone int32, reads *atomic.Int32) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("cursor") == "" {
			n := reads.Add(1)
			json.NewEncoder(w).Encode(server.RowsPage{Epoch: uint64(n), Count: 2, Rows: [][]int64{{int64(n), 1}}, Mults: []int64{1}, Next: "r1.1"})
			return
		}
		n := reads.Load()
		if n <= gone {
			writeError(w, &server.WireError{Code: server.CodeGone, Message: "cursor expired"})
			return
		}
		json.NewEncoder(w).Encode(server.RowsPage{Epoch: uint64(n), Count: 2, Rows: [][]int64{{int64(n), 2}}, Mults: []int64{5}})
	}
}

func TestRowsRestartsOnGone(t *testing.T) {
	// Two expired cursors: the third read completes, and only its rows are
	// returned.
	var reads atomic.Int32
	c := serve(t, goneAfterFirstPage(2, &reads))
	rows, mults, epoch, err := c.Rows(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if reads.Load() != 3 || epoch != 3 || !reflect.DeepEqual(rows, [][]int64{{3, 1}, {3, 2}}) || !reflect.DeepEqual(mults, []int64{1, 5}) {
		t.Fatalf("after %d reads: rows %v mults %v epoch %d", reads.Load(), rows, mults, epoch)
	}

	// A cursor that always expires: Rows gives up after the third read.
	reads.Store(0)
	c = serve(t, goneAfterFirstPage(1<<30, &reads))
	rows, _, _, err = c.Rows(context.Background(), "")
	var we *server.WireError
	if !errors.As(err, &we) || we.Code != server.CodeGone || rows != nil {
		t.Fatalf("rows %v, err %v; want nil rows and a gone error", rows, err)
	}
	if reads.Load() != 3 {
		t.Fatalf("Rows began %d reads, want 3", reads.Load())
	}
}

func TestWalkRejectsEpochChange(t *testing.T) {
	c := serve(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("cursor") == "" {
			json.NewEncoder(w).Encode(server.RowsPage{Epoch: 5, Rows: [][]int64{{1}}, Mults: []int64{1}, Next: "r1.1"})
			return
		}
		json.NewEncoder(w).Encode(server.RowsPage{Epoch: 6, Rows: [][]int64{{2}}, Mults: []int64{1}})
	})
	seen := 0
	_, err := c.walk(context.Background(), "", func([]int64, int64) bool { seen++; return true })
	if err == nil || !strings.Contains(err.Error(), "epoch changed 5 → 6") {
		t.Fatalf("err = %v, want the epoch change reported", err)
	}
	if seen != 1 {
		t.Fatalf("yielded %d rows, want only the first page's", seen)
	}
}

// TestPageDecodeAllocatesPerPage bounds what decoding one 2 048-row page
// costs the client: the rows are one backing array and one slice of headers
// (server.RowBlock), and the rest is encoding/json's own — its decode state
// and the mults slice it grows by doubling, 14 times at this size — so the
// count is a few dozen, where a slice grown per row made it over 6 000.
func TestPageDecodeAllocatesPerPage(t *testing.T) {
	page := server.RowsPage{Epoch: 3, Count: 5000, Next: "r1.2048"}
	for i := int64(0); i < 2048; i++ {
		page.Rows = append(page.Rows, []int64{i, 7 * i, -i})
		page.Mults = append(page.Mults, i%5+1)
	}
	body, err := json.Marshal(&page)
	if err != nil {
		t.Fatal(err)
	}
	var got server.RowsPage
	allocs := testing.AllocsPerRun(10, func() {
		got = server.RowsPage{}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, page) {
		t.Fatal("the page does not decode to what was encoded")
	}
	t.Logf("decoding a %d-row page: %.0f allocations", len(page.Rows), allocs)
	if allocs > 32 {
		t.Errorf("decoding a %d-row page allocates %.0f times, want at most 32", len(page.Rows), allocs)
	}
}
