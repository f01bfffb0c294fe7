package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivmeps"
	"ivmeps/internal/client"
	"ivmeps/internal/server"
)

const testQuery = "Q(A, C) = R(A, B), S(B, C)"

// newStack builds an engine for testQuery, wraps it in a Server with opts,
// mounts it on a loopback httptest server, and returns a client. Everything
// is torn down with the test.
func newStack(t *testing.T, sopts server.Options, copts client.Options) (*ivmeps.Engine, *server.Server, *client.Client) {
	t.Helper()
	q := ivmeps.MustParseQuery(testQuery)
	eng, err := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, sopts)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	c, err := client.New(hs.URL, copts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, srv, c
}

// sortedRows canonicalizes a (rows, mults) pair for comparison.
func sortedRows(rows [][]int64, mults []int64) string {
	lines := make([]string, len(rows))
	for i := range rows {
		lines[i] = fmt.Sprintf("%v=%d", rows[i], mults[i])
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}

func TestCommitAndRowsRoundtrip(t *testing.T) {
	eng, _, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()

	b := c.NewBatch()
	for i := int64(0); i < 10; i++ {
		b.Insert("R", []int64{i, i % 3})
		b.Insert("S", []int64{i % 3, i * 10})
	}
	epoch, err := c.Commit(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 { // Build is epoch 1, first commit epoch 2
		t.Fatalf("commit epoch = %d, want 2", epoch)
	}
	// An empty commit publishes nothing new.
	b.Reset()
	if ep, err := c.Commit(ctx, b); err != nil || ep != epoch {
		t.Fatalf("empty commit = (%d, %v), want (%d, nil)", ep, err, epoch)
	}

	// Remote result == local result.
	rows, mults, repoch, err := c.Rows(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if repoch != epoch {
		t.Fatalf("rows epoch = %d, want %d", repoch, epoch)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var lrows [][]int64
	var lmults []int64
	for row, m := range snap.All() {
		cp := make([]int64, len(row))
		copy(cp, row)
		lrows = append(lrows, cp)
		lmults = append(lmults, m)
	}
	if got, want := sortedRows(rows, mults), sortedRows(lrows, lmults); got != want {
		t.Fatalf("remote result diverges:\n got %s\nwant %s", got, want)
	}

	// Remote view state == local view state, via All's lazy iterator.
	for _, v := range eng.Views() {
		wantRows, wantMults, err := snap.ViewRows(v)
		if err != nil {
			t.Fatal(err)
		}
		seq, errf := c.All(ctx, v)
		var grows [][]int64
		var gmults []int64
		for row, m := range seq {
			grows = append(grows, slices.Clone(row))
			gmults = append(gmults, m)
		}
		if err := errf(); err != nil {
			t.Fatal(err)
		}
		if got, want := sortedRows(grows, gmults), sortedRows(wantRows, wantMults); got != want {
			t.Fatalf("view %s diverges:\n got %s\nwant %s", v, got, want)
		}
	}
}

func TestPaginationHoldsEpochAcrossCommits(t *testing.T) {
	_, _, c := newStack(t, server.Options{}, client.Options{PageLimit: 7})
	ctx := context.Background()

	b := c.NewBatch()
	for i := int64(0); i < 60; i++ {
		b.Insert("R", []int64{i, i})
		b.Insert("S", []int64{i, i})
	}
	epoch, err := c.Commit(ctx, b)
	if err != nil {
		t.Fatal(err)
	}

	// Iterate lazily and commit between pages: every yielded row must still
	// come from the pinned snapshot — same epoch, exactly the 60 original
	// tuples, none of the interleaved ones.
	seq, errf := c.All(ctx, "")
	n := 0
	for row, mult := range seq {
		if mult != 1 || row[0] != row[1] || row[0] >= 60 {
			t.Fatalf("row %v (mult %d) is not from the pinned snapshot", row, mult)
		}
		n++
		if n%10 == 0 {
			ib := c.NewBatch()
			ib.Insert("R", []int64{1000 + int64(n), 1})
			ib.Insert("S", []int64{1, 2000 + int64(n)})
			if _, err := c.Commit(ctx, ib); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if n != 60 {
		t.Fatalf("paginated read yielded %d rows, want 60", n)
	}

	// A fresh read sees the post-commit state at a later epoch.
	_, _, repoch, err := c.Rows(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if repoch <= epoch {
		t.Fatalf("fresh read epoch = %d, want > %d", repoch, epoch)
	}
}

// waitFor polls cond every millisecond until it holds, failing the test
// after d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("still waiting after %v for %s", d, what)
		}
	}
}

// lastFrame parses the last frame of a finished stream's body; a body that
// does not end in a frame is an error, and a zero Frame.
func lastFrame(t *testing.T, body string) server.Frame {
	t.Helper()
	body = strings.TrimSuffix(body, "\n")
	f, err := server.ParseFrame([]byte(body[strings.LastIndexByte(body, '\n')+1:]))
	if err != nil {
		t.Errorf("last frame of %q: %v", body, err)
	}
	return f
}

// newReadStack is newStack with a committed four-row query result.
func newReadStack(t *testing.T) *server.Server {
	_, srv, c := newStack(t, server.Options{}, client.Options{})
	b := c.NewBatch()
	for i := int64(0); i < 4; i++ {
		b.Insert("R", []int64{i, i}).Insert("S", []int64{i, i})
	}
	if _, err := c.Commit(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	return srv
}

// stallReads opens n reads of the query result, one row per frame, one at a
// time so their age order is known. Each writes through a gatedWriter whose
// writes block until release is called, as a peer that stopped reading does
// once its socket buffers are full; release returns once their handlers
// have.
func stallReads(t *testing.T, srv *server.Server, n int) (stalled []*gatedWriter, release func()) {
	t.Helper()
	gate, free := make(chan struct{}), make(chan struct{})
	close(gate)
	var wg sync.WaitGroup
	for i := range n {
		gw := &gatedWriter{header: make(http.Header), lines: make(chan string, 8), gate: gate, free: free}
		stalled = append(stalled, gw)
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeHTTP(gw, httptest.NewRequest(http.MethodGet, "/v1/result/rows?limit=1", nil))
		}()
		waitFor(t, 5*time.Second, fmt.Sprintf("stalled read %d to open", i), func() bool { return server.OpenReaders(srv) == i+1 })
	}
	return stalled, func() {
		close(free)
		wg.Wait()
	}
}

// TestOldestReadEvictedAtCap holds server.MaxReaders reads open, each
// stalled writing its first frame, and starts one more: that one is served
// in full, and the oldest ends at its next frame boundary with a terminal
// gone frame instead of its closing frame, while every other stalled read,
// once released, completes.
func TestOldestReadEvictedAtCap(t *testing.T) {
	srv := newReadStack(t)
	stalled, release := stallReads(t, srv, server.MaxReaders)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/result/rows?limit=1", nil))
	if f := lastFrame(t, rec.Body.String()); f.Type != server.FrameReady || f.Count != 4 {
		t.Fatalf("the read past the cap ended with %+v, want its closing frame", f)
	}
	release()
	for i, gw := range stalled {
		close(gw.lines)
		var frames []server.Frame
		for line := range gw.lines {
			f, err := server.ParseFrame([]byte(line))
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
		last := frames[len(frames)-1]
		switch {
		case i == 0 && (len(frames) != 2 || last.Type != server.FrameError || last.Err.Code != server.CodeGone):
			t.Fatalf("the oldest read wrote %+v, want its first rows frame and then gone", frames)
		case i > 0 && (last.Type != server.FrameReady || last.Count != 4):
			t.Fatalf("stalled read %d ended with %+v, want its closing frame", i, last)
		}
	}
	if n := server.OpenReaders(srv); n != 0 {
		t.Fatalf("%d reads open after every handler returned", n)
	}
}

// TestAbandonedReadReleasesSnapshot breaks out of a remote read after its
// first row: the client closes the body unread, so the server's next frame
// write fails (or its handler sees the request's context end) and the
// handler returns and releases the snapshot at once, with no expiry to wait
// for.
func TestAbandonedReadReleasesSnapshot(t *testing.T) {
	_, srv, c := newStack(t, server.Options{}, client.Options{PageLimit: 16})
	ctx := context.Background()
	b := c.NewBatch()
	for i := int64(0); i < 5000; i++ {
		b.Insert("R", []int64{i, 0})
	}
	if _, err := c.Commit(ctx, b.Insert("S", []int64{0, 0})); err != nil {
		t.Fatal(err)
	}
	seq, errf := c.All(ctx, "")
	rows := 0
	for range seq {
		rows++
		break
	}
	if err := errf(); err != nil || rows != 1 {
		t.Fatalf("abandoned read: %d rows, %v", rows, err)
	}
	waitFor(t, time.Second, "the abandoned read's handler to return", func() bool { return server.OpenReaders(srv) == 0 })
}

func TestTypedErrorsSurviveTheWire(t *testing.T) {
	_, _, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()

	// Unknown relation → sentinel.
	if _, err := c.Commit(ctx, c.NewBatch().Insert("Nope", []int64{1, 2})); !errors.Is(err, ivmeps.ErrUnknownRelation) {
		t.Fatalf("unknown relation err = %v, want ErrUnknownRelation", err)
	}
	// Wrong arity → *ArityError with fields.
	var ae *ivmeps.ArityError
	if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{1, 2, 3})); !errors.As(err, &ae) {
		t.Fatalf("arity err = %v, want *ArityError", err)
	} else if ae.Relation != "R" || len(ae.Row) != 3 {
		t.Fatalf("ArityError fields = %+v", ae)
	}
	// Multiplicity underflow → *MultiplicityError, and the commit is
	// all-or-nothing: the valid first op must not have landed.
	before, err := c.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var me *ivmeps.MultiplicityError
	bad := c.NewBatch().Insert("R", []int64{7, 7}).Delete("S", []int64{9, 9})
	if _, err := c.Commit(ctx, bad); !errors.As(err, &me) {
		t.Fatalf("multiplicity err = %v, want *MultiplicityError", err)
	}
	if after, _ := c.Epoch(ctx); after != before {
		t.Fatalf("rejected commit advanced the epoch %d → %d", before, after)
	}
	if rows, _, _, err := c.Rows(ctx, ""); err != nil || len(rows) != 0 {
		t.Fatalf("rejected commit leaked state: rows=%v err=%v", rows, err)
	}

	// Unknown view → WireError with CodeUnknownView (no local counterpart).
	var we *server.WireError
	if _, _, _, err := c.Rows(ctx, "NoSuchView"); !errors.As(err, &we) || we.Code != server.CodeUnknownView {
		t.Fatalf("unknown view err = %v, want WireError{unknown_view}", err)
	}
	// Watch on an unknown view is refused the same way.
	if _, err := c.Watch(ctx, client.WatchOptions{Views: []string{"NoSuchView"}}); !errors.As(err, &we) || we.Code != server.CodeUnknownView {
		t.Fatalf("unknown watch view err = %v, want WireError{unknown_view}", err)
	}
}

func TestWatchStreamsCommits(t *testing.T) {
	eng, _, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()

	// Seed some state so the anchor is non-trivial.
	seed := c.NewBatch().Insert("R", []int64{1, 2}).Insert("S", []int64{2, 3})
	anchorEpoch, err := c.Commit(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}

	w, err := c.Watch(ctx, client.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Epoch() != anchorEpoch {
		t.Fatalf("anchor epoch = %d, want %d", w.Epoch(), anchorEpoch)
	}
	if w.Resumed() {
		t.Fatal("fresh watch reported Resumed")
	}
	// Anchor covers every root view, including empty ones.
	for _, v := range eng.Views() {
		if _, _, ok := w.AnchorRows(v); !ok {
			t.Fatalf("anchor missing view %s", v)
		}
	}

	// Commit twice; the stream yields both with consecutive epochs.
	if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{5, 6})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(ctx, c.NewBatch().Insert("S", []int64{6, 7})); err != nil {
		t.Fatal(err)
	}
	got := 0
	for ev, err := range w.Events() {
		if err != nil {
			t.Fatal(err)
		}
		got++
		if want := anchorEpoch + uint64(got); ev.Epoch != want {
			t.Fatalf("event %d epoch = %d, want %d", got, ev.Epoch, want)
		}
		if got == 2 {
			break
		}
	}
	if got != 2 {
		t.Fatalf("saw %d events, want 2", got)
	}
}

func TestWatchResumeAndReset(t *testing.T) {
	_, _, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()

	if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{1, 1}).Insert("S", []int64{1, 1})); err != nil {
		t.Fatal(err)
	}
	epoch, err := c.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// from_epoch == committed epoch: gap-free continuation, no state dump.
	w, err := c.Watch(ctx, client.WatchOptions{FromEpoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Resumed() {
		t.Fatal("watch at the committed epoch did not resume")
	}
	if _, _, ok := w.AnchorRows(w.Views()[0]); ok {
		t.Fatal("resumed watch carried an anchor state dump")
	}
	if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{2, 2})); err != nil {
		t.Fatal(err)
	}
	for ev, err := range w.Events() {
		if err != nil {
			t.Fatal(err)
		}
		if ev.Epoch != epoch+1 {
			t.Fatalf("resumed stream's first event epoch = %d, want %d", ev.Epoch, epoch+1)
		}
		break
	}
	w.Close()

	// from_epoch older than the committed epoch: full reset dump.
	w, err = c.Watch(ctx, client.WatchOptions{FromEpoch: epoch - 1})
	if err != nil {
		t.Fatal(err)
	}
	if w.Resumed() {
		t.Fatal("stale from_epoch resumed instead of resetting")
	}
	if _, _, ok := w.AnchorRows(w.Views()[0]); !ok {
		t.Fatal("reset watch carried no anchor state")
	}
	w.Close()

	// from_epoch ahead of the committed epoch: refused.
	var we *server.WireError
	if _, err := c.Watch(ctx, client.WatchOptions{FromEpoch: epoch + 100}); !errors.As(err, &we) || we.Code != server.CodeEpochAhead {
		t.Fatalf("future from_epoch err = %v, want WireError{epoch_ahead}", err)
	}
}

// TestWatchRepeatedViewDumpedOnce: a view named twice in ?views= is listed
// and dumped once, so the client's anchor state is the view's rows.
func TestWatchRepeatedViewDumpedOnce(t *testing.T) {
	eng, _, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()
	if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{1, 2}).Insert("S", []int64{2, 3})); err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	dumped := 0
	for _, v := range eng.Views() {
		w, err := c.Watch(ctx, client.WatchOptions{Views: []string{v, v}})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		rows, mults, ok := w.AnchorRows(v)
		wantRows, wantMults, err := snap.ViewRows(v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || len(w.Views()) != 1 || sortedRows(rows, mults) != sortedRows(wantRows, wantMults) {
			t.Fatalf("watch of %s twice lists %v and anchors %v %v, want it once with %v %v", v, w.Views(), rows, mults, wantRows, wantMults)
		}
		dumped += len(wantRows)
	}
	if dumped == 0 {
		t.Fatal("every view is empty: the test compared nothing")
	}
}

// TestWatchEmptyViewsFilter: an empty view list is a filter that passes no
// view, remotely as locally — the remote anchor lists no view and the next
// commit's event carries no delta, as the local watcher's does.
func TestWatchEmptyViewsFilter(t *testing.T) {
	eng, _, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()
	lw, err := eng.Watch(ivmeps.WatchOptions{Views: []string{}})
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	rw, err := c.Watch(ctx, client.WatchOptions{Views: []string{}})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if len(rw.Views()) != 0 {
		t.Errorf("remote anchor lists %v, want no view", rw.Views())
	}
	if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{1, 2}).Insert("S", []int64{2, 3})); err != nil {
		t.Fatal(err)
	}
	for name, events := range map[string]iter.Seq2[ivmeps.Event, error]{"local": lw.Events(), "remote": rw.Events()} {
		for ev, err := range events {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ev.Epoch != 2 || len(ev.Deltas) != 0 {
				t.Errorf("%s: event at epoch %d with %d deltas, want epoch 2 with none", name, ev.Epoch, len(ev.Deltas))
			}
			break
		}
	}
}

// TestWatchAnchorSpansFrames: a view of more than two frames of anchor rows
// arrives whole. The client decodes every rows frame into one reused frame,
// so AnchorRows must hold copies: after Events has read further frames, it
// still equals the view at the anchor epoch.
func TestWatchAnchorSpansFrames(t *testing.T) {
	eng, _, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()
	const n = 2*512 + 300 // over two frames of the anchor's page size
	b := c.NewBatch()
	for i := int64(0); i < n; i++ {
		b.Insert("R", []int64{i, i}).Insert("S", []int64{i, 10 * i})
	}
	if _, err := c.Commit(ctx, b); err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	w, err := c.Watch(ctx, client.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Epoch() != snap.Epoch() {
		t.Fatalf("anchor epoch %d, snapshot epoch %d", w.Epoch(), snap.Epoch())
	}
	for i := int64(0); i < 2; i++ {
		if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{n + i, 0})); err != nil {
			t.Fatal(err)
		}
	}
	events := 0
	for _, err := range w.Events() {
		if err != nil {
			t.Fatal(err)
		}
		if events++; events == 2 {
			break
		}
	}
	spans := false
	for _, v := range w.Views() {
		rows, mults, ok := w.AnchorRows(v)
		wantRows, wantMults, err := snap.ViewRows(v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || sortedRows(rows, mults) != sortedRows(wantRows, wantMults) {
			t.Fatalf("after %d events, the anchor of %s (%d rows) differs from the view at its epoch (%d rows)", events, v, len(rows), len(wantRows))
		}
		spans = spans || len(wantRows) > 2*512
	}
	if !spans {
		t.Fatal("no view spans more than two frames: the test checked nothing")
	}
}

func TestMetricsExposition(t *testing.T) {
	_, srv, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()
	if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{1, 1})); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Rows(ctx, ""); err != nil {
		t.Fatal(err)
	}

	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`ivmd_requests_total{endpoint="commit"} 1`,
		`ivmd_commits_total{outcome="ok"} 1`,
		"ivmd_commit_latency_seconds_count 1",
		"ivmd_commit_latency_seconds_bucket{le=\"+Inf\"} 1",
		"ivmd_watchers 0",
		"ivmd_epoch 2",
		"ivmd_db_size 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

func TestDrainSemantics(t *testing.T) {
	_, srv, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{1, 1}).Insert("S", []int64{1, 1})); err != nil {
		t.Fatal(err)
	}

	// A live watcher, and a commit already past the drain check (its body
	// arrives byte by byte through a pipe).
	w, err := c.Watch(ctx, client.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// An event committed before the drain must be delivered before the
	// terminal frame.
	if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{5, 5}).Insert("S", []int64{5, 5})); err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	commitDone := make(chan error, 1)
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/commit", pr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			commitDone <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("in-flight commit status %d", resp.StatusCode)
		}
		commitDone <- err
	}()
	if _, err := io.WriteString(pw, `{"rel":"R","row":[9,9]}`+"\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the handler pass the drain check

	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() false after Drain")
	}

	// The in-flight commit completes once its body finishes.
	if _, err := io.WriteString(pw, `{"rel":"S","row":[9,9]}`+"\n"); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-commitDone; err != nil {
		t.Fatalf("in-flight commit failed across drain: %v", err)
	}

	// The watcher sees the pre-drain commit, then the terminal end frame —
	// not a dropped connection. (The in-flight commit landed after Drain
	// closed the stream, so its event is not guaranteed here; its state is
	// verified by the read below.)
	sawEvent := false
	for ev, err := range w.Events() {
		if err != nil {
			t.Fatalf("watch stream errored during drain: %v", err)
		}
		if len(ev.Deltas) > 0 {
			sawEvent = true
		}
	}
	if !w.Drained() {
		t.Fatal("watch stream did not end with the drain frame")
	}
	if !sawEvent {
		t.Fatal("watcher missed the pre-drain commit")
	}

	// The in-flight commit's state is durable and readable post-drain.
	rows, _, _, err := c.Rows(ctx, "")
	if err != nil {
		t.Fatalf("post-drain read failed: %v", err)
	}
	found := false
	for _, r := range rows {
		if r[0] == 9 && r[1] == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("in-flight commit's row Q(9,9) missing from post-drain state")
	}

	// New work is refused.
	var we *server.WireError
	if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{2, 2})); !errors.As(err, &we) || we.Code != server.CodeDraining {
		t.Fatalf("post-drain commit err = %v, want WireError{draining}", err)
	}
	if _, err := c.Watch(ctx, client.WatchOptions{}); !errors.As(err, &we) || we.Code != server.CodeDraining {
		t.Fatalf("post-drain watch err = %v, want WireError{draining}", err)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}

	// Reads still work on a draining server (it is read-only, not dead).
	if _, _, _, err := c.Rows(ctx, ""); err != nil {
		t.Fatalf("post-drain read failed: %v", err)
	}
}

// gatedWriter is a ResponseWriter whose Write blocks once the gate closes,
// simulating a stalled consumer without a real socket.
type gatedWriter struct {
	mu     sync.Mutex
	header http.Header
	lines  chan string
	buf    strings.Builder
	gate   chan struct{} // closed → writes block until release
	free   chan struct{} // closed → blocked writes return
}

// Header implements http.ResponseWriter.
func (g *gatedWriter) Header() http.Header { return g.header }

// WriteHeader implements http.ResponseWriter.
func (g *gatedWriter) WriteHeader(int) {}

// Flush implements http.Flusher so the handler streams.
func (g *gatedWriter) Flush() {}

// Write records complete NDJSON lines, blocking while the gate is closed.
func (g *gatedWriter) Write(p []byte) (int, error) {
	select {
	case <-g.gate:
		<-g.free
	default:
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.buf.Write(p)
	for {
		s := g.buf.String()
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			break
		}
		g.lines <- s[:i]
		g.buf.Reset()
		g.buf.WriteString(s[i+1:])
	}
	return len(p), nil
}

func TestWatchLaggedEviction(t *testing.T) {
	q := ivmeps.MustParseQuery(testQuery)
	eng, err := ivmeps.New(q, ivmeps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Options{})

	gw := &gatedWriter{
		header: make(http.Header),
		lines:  make(chan string, 1024),
		gate:   make(chan struct{}),
		free:   make(chan struct{}),
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/watch?buffer=1", nil)
	handlerDone := make(chan struct{})
	go func() {
		srv.ServeHTTP(gw, req)
		close(handlerDone)
	}()

	// Wait for the stream opening, then stall the writer.
	for line := range gw.lines {
		f, err := server.ParseFrame([]byte(line))
		if err != nil {
			t.Error(err)
			break
		}
		if f.Type == server.FrameReady {
			break
		}
	}
	close(gw.gate)

	// The handler is (or will be) blocked writing; buffer is 1, so a burst
	// of commits must overflow it and evict the watcher. Commits go through
	// the engine directly — the test goroutine is the single writer here.
	b := eng.NewBatch()
	for i := int64(0); i < 16; i++ {
		b.Reset()
		b.Insert("R", []int64{i, i})
		if err := eng.Commit(b); err != nil {
			t.Fatal(err)
		}
	}
	close(gw.free) // un-stall; the handler drains and sends the lagged frame
	<-handlerDone

	sawLagged := false
	close(gw.lines)
	for line := range gw.lines {
		f, err := server.ParseFrame([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == server.FrameLagged {
			sawLagged = true
			if f.To <= f.From || f.From == 0 {
				t.Fatalf("lagged frame range [%d, %d] is malformed", f.From, f.To)
			}
		}
	}
	if !sawLagged {
		t.Fatal("stalled watcher was not evicted with a lagged frame")
	}
}

// smallSendBufListener shrinks the kernel send buffer of every connection
// it accepts.
type smallSendBufListener struct{ net.Listener }

func (l smallSendBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		c.(*net.TCPConn).SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestWatchStalledPeerIsClosed: a watch client that stops reading must not
// hold its handler goroutine, connection and watchers count once its socket
// buffers fill — the per-frame write deadline ends the stream — while a
// watcher that does read sees every epoch and the engine keeps committing.
func TestWatchStalledPeerIsClosed(t *testing.T) {
	server.SetWatchWriteTimeout(t, 200*time.Millisecond) // before newStack: restored after its server closed
	_, srv, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()
	// A second listener on the same server whose connections have small send
	// buffers, so a stalled peer blocks the handler after a few frames.
	hs := httptest.NewUnstartedServer(srv)
	hs.Listener = smallSendBufListener{hs.Listener}
	hs.Start()
	defer hs.Close()

	// 2000 join keys of degree one: every key stays light, so a commit that
	// adds an S row under each of them changes 2000 rows of a root view.
	const keys = 2000
	seed := c.NewBatch()
	for k := int64(0); k < keys; k++ {
		seed.Insert("R", []int64{k, k})
	}
	if _, err := c.Commit(ctx, seed); err != nil {
		t.Fatal(err)
	}

	// The stalled peer: a raw connection with a small receive buffer that
	// reads the stream opening and then nothing.
	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := io.WriteString(conn, "GET /v1/watch HTTP/1.1\r\nHost: stalled\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	for br := bufio.NewReader(conn); ; {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stalled peer: reading the stream opening: %v", err)
		}
		if strings.Contains(line, `"type":"ready"`) {
			break
		}
	}

	w, err := c.Watch(ctx, client.WatchOptions{Buffer: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	seen := make(chan uint64, 1<<12)
	go func() {
		defer close(seen)
		for ev, err := range w.Events() {
			if err != nil {
				return
			}
			seen <- ev.Epoch
		}
	}()

	// Each commit inserts (or, every other time, deletes again) one S row per
	// key: a 2000-row delta per frame, with a database that stays small.
	watchers := func() int64 {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.Watchers
	}
	if n := watchers(); n != 2 {
		t.Fatalf("watchers = %d before the stall, want 2", n)
	}
	var last uint64
	b := c.NewBatch()
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; watchers() != 1; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("stalled stream still open after %d large commits: watchers = %d, want 1", i, watchers())
		}
		b.Reset()
		for k := int64(0); k < keys; k++ {
			b.Apply("S", []int64{k, 7}, int64(1-2*(i%2)))
		}
		if last, err = c.Commit(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	// The engine keeps committing, and the reading watcher missed nothing.
	if last, err = c.Commit(ctx, c.NewBatch().Insert("R", []int64{9, 9})); err != nil {
		t.Fatal(err)
	}
	for want := w.Epoch() + 1; want <= last; want++ {
		select {
		case got, ok := <-seen:
			if !ok || got != want {
				t.Fatalf("reading watcher: event epoch %d (open=%v), want %d", got, ok, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("reading watcher: no event for epoch %d", want)
		}
	}
	w.Close()
	for deadline := time.Now().Add(5 * time.Second); watchers() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("watchers = %d after both streams ended, want 0", watchers())
		}
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "ivmd_watch_write_timeouts_total 1\n"; !strings.Contains(string(body), want) {
		t.Fatalf("metrics exposition missing %q", want)
	}
}

// TestLaggedOverClientSurface verifies the client maps a lagged frame back
// onto ivmeps.ErrWatcherLagged.
func TestLaggedOverClientSurface(t *testing.T) {
	frame := `{"type":"lagged","from":5,"to":9}` + "\n"
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/watch"):
			w.Header().Set("Content-Type", "application/x-ndjson")
			bw := bufio.NewWriter(w)
			bw.WriteString(`{"type":"anchor","epoch":4,"views":["V0"]}` + "\n")
			bw.WriteString(`{"type":"rows","view":"V0","rows":[],"mults":[]}` + "\n")
			bw.WriteString(`{"type":"ready","epoch":4}` + "\n")
			bw.WriteString(frame)
			bw.Flush()
		default:
			http.NotFound(w, r)
		}
	}))
	defer hs.Close()
	c, err := client.New(hs.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), client.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var sawErr error
	for _, err := range w.Events() {
		sawErr = err
	}
	if !errors.Is(sawErr, ivmeps.ErrWatcherLagged) {
		t.Fatalf("lagged frame decoded to %v, want ErrWatcherLagged", sawErr)
	}
	var wle *ivmeps.WatcherLaggedError
	if !errors.As(sawErr, &wle) || wle.From != 5 || wle.To != 9 {
		t.Fatalf("lagged error fields = %v", sawErr)
	}
}

// readyProbeWriter is a ResponseWriter that runs probe from inside the
// Write carrying the stream's ready frame — while the handler goroutine is
// parked in that Write, so whatever the handler still holds at that point
// it holds for the whole probe.
type readyProbeWriter struct {
	header http.Header
	probe  func()
}

// Header implements http.ResponseWriter.
func (w *readyProbeWriter) Header() http.Header { return w.header }

// WriteHeader implements http.ResponseWriter.
func (w *readyProbeWriter) WriteHeader(int) {}

// Flush implements http.Flusher so the handler streams.
func (w *readyProbeWriter) Flush() {}

// Write runs the probe on the write whose last frame is the ready frame: a
// write may carry queued rows frames before it.
func (w *readyProbeWriter) Write(p []byte) (int, error) {
	last := bytes.TrimSuffix(p, []byte("\n"))
	if f, err := server.ParseFrame(last[bytes.LastIndexByte(last, '\n')+1:]); err == nil && f.Type == server.FrameReady {
		w.probe()
	}
	return len(p), nil
}

// TestWatchReleasesAnchorBeforeReady pins the order of the stream opening:
// the anchor snapshot is closed before the ready frame is written, not
// after. A client that commits as soon as it reads "ready" would otherwise
// race the handler's Close, and a commit that loses the race copies every
// relation it writes (copy-on-write against the still-pinned anchor). The
// probe commits from inside the ready frame's Write and measures what the
// commit allocated: nothing next to the size of R once the anchor is
// released, a copy of R and of the views over it while it is pinned.
func TestWatchReleasesAnchorBeforeReady(t *testing.T) {
	const rows = 20000
	q := ivmeps.MustParseQuery(testQuery)
	eng, err := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := int64(0); i < rows; i++ {
		if err := eng.Load("R", []int64{i, i % 64}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Load("S", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	// Warm the commit path, so the probe's commit allocates nothing of its
	// own.
	for i := 0; i < 4; i++ {
		if err := errors.Join(eng.Insert("R", []int64{rows, 1}), eng.Delete("R", []int64{rows, 1})); err != nil {
			t.Fatal(err)
		}
	}

	var allocated uint64
	probed := false
	w := &readyProbeWriter{header: make(http.Header), probe: func() {
		probed = true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := eng.Insert("R", []int64{rows, 1}); err != nil {
			t.Error(err)
		}
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
	}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the stream ends right after its opening
	req := httptest.NewRequest(http.MethodGet, "/v1/watch", nil).WithContext(ctx)
	server.New(eng, server.Options{}).ServeHTTP(w, req)
	if !probed {
		t.Fatal("no write of the stream carried its ready frame last")
	}

	// R alone holds rows × 2 values × 8 bytes of tuple data.
	if limit := uint64(rows * 2 * 8 / 4); allocated > limit {
		t.Fatalf("a commit racing the ready frame allocated %d bytes (> %d): the anchor snapshot was still pinned", allocated, limit)
	}
	t.Logf("commit inside the ready frame allocated %d bytes", allocated)
}

// TestReadStalledPeerIsClosed: a read whose client stops reading must not
// hold its handler, connection and snapshot once its socket buffers fill —
// the per-frame write deadline the watch stream uses ends it too, and the
// timeout is counted — while a reading client's read of the same result
// completes.
func TestReadStalledPeerIsClosed(t *testing.T) {
	server.SetWatchWriteTimeout(t, 200*time.Millisecond) // before newStack: restored after its server closed
	_, srv, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()
	hs := httptest.NewUnstartedServer(srv)
	hs.Listener = smallSendBufListener{hs.Listener}
	hs.Start()
	defer hs.Close()

	// 10 000 R rows over ten join keys, each key meeting ten S rows: a
	// 100 000-row result, a megabyte of frames — far more than both sockets'
	// buffers hold.
	const rows = 100000
	b := c.NewBatch()
	for i := int64(0); i < rows/10; i++ {
		b.Insert("R", []int64{i, i % 10})
	}
	for k := int64(0); k < 100; k++ {
		b.Insert("S", []int64{k / 10, k % 10})
	}
	if _, err := c.Commit(ctx, b); err != nil {
		t.Fatal(err)
	}

	// The stalled peer: a raw connection with a small receive buffer that
	// sends the request and reads nothing.
	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := io.WriteString(conn, "GET /v1/result/rows HTTP/1.1\r\nHost: stalled\r\n\r\n"); err != nil {
		t.Fatal(err)
	}

	metrics := func() string {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}
	waitFor(t, 10*time.Second, "the stalled read's write timeout", func() bool {
		return strings.Contains(metrics(), "ivmd_read_write_timeouts_total 1\n")
	})
	waitFor(t, time.Second, "the stalled read's handler to return", func() bool { return server.OpenReaders(srv) == 0 })
	if got, _, _, err := c.Rows(ctx, ""); err != nil || len(got) != rows {
		t.Fatalf("a reading client's read: %d rows, %v; want %d", len(got), err, rows)
	}
	if m := metrics(); !strings.Contains(m, "ivmd_read_write_timeouts_total 1\n") || !strings.Contains(m, "ivmd_watch_write_timeouts_total 0\n") {
		t.Fatalf("metrics exposition does not count exactly the one read timeout:\n%s", m)
	}
}

// slowRecorder is a recorder that pauses in every write, so a read through
// it spans many opens of other reads.
type slowRecorder struct{ *httptest.ResponseRecorder }

func (w slowRecorder) Write(p []byte) (int, error) {
	time.Sleep(100 * time.Microsecond)
	return w.ResponseRecorder.Write(p)
}

// TestReadEvictionRacesOpens fills the registry one short of its cap with
// stalled reads, then runs a slow read — its writer pauses in every frame —
// read after read, against two goroutines opening reads as fast as they
// can: every open evicts the oldest live read, first the stalled ones and
// then each other, while the evicted read checks its own context between
// frames and others unregister. Run under -race (CI's `make race`): the
// registry is the reads' only shared state. Every read completes or ends
// with gone, some end with gone, and the registry empties.
func TestReadEvictionRacesOpens(t *testing.T) {
	srv := newReadStack(t)
	_, release := stallReads(t, srv, server.MaxReaders-1)
	const rounds = 300
	var gone atomic.Int64
	var wg sync.WaitGroup
	reads := func(slow bool) {
		defer wg.Done()
		for range rounds {
			rec := httptest.NewRecorder()
			var w http.ResponseWriter = rec
			if slow {
				w = slowRecorder{rec}
			}
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/result/rows?limit=1", nil))
			switch f := lastFrame(t, rec.Body.String()); {
			case f.Type == server.FrameError && f.Err.Code == server.CodeGone:
				gone.Add(1)
			case f.Type != server.FrameReady || f.Count != 4:
				t.Errorf("a read ended with %+v", f)
				return
			}
		}
	}
	wg.Add(3)
	go reads(true)
	go reads(false)
	go reads(false)
	wg.Wait()
	release()
	if n := server.OpenReaders(srv); n != 0 {
		t.Fatalf("%d reads open after every handler returned", n)
	}
	if gone.Load() == 0 {
		t.Fatalf("none of %d racing reads was evicted", 3*rounds)
	}
	t.Logf("%d of %d racing reads ended gone", gone.Load(), 3*rounds)
}

// deadlineRecorder is a recorder that takes write deadlines as a connection
// does, so http.ResponseController sets them instead of returning the error
// it allocates for a writer without them.
type deadlineRecorder struct{ *httptest.ResponseRecorder }

func (deadlineRecorder) SetWriteDeadline(time.Time) error { return nil }

// TestReadAllocatesPerFrame reads committed states in full and bounds what
// rows and frames cost. A 64-row and a 2048-row result, one frame each at
// limit=2048, differ by < 0.01 allocations per extra row: a frame's rows are
// one backing array, not a slice each. The 2048 rows at limit=64 — 32 frames
// instead of one — cost < 0.01 more allocations per row: a frame's arrays
// are refilled by the next, and its line is written from one reused buffer,
// not by encoding/json, so this holds under -race too.
func TestReadAllocatesPerFrame(t *testing.T) {
	_, srv, c := newStack(t, server.Options{}, client.Options{})
	grow := func(from, to int64) {
		b := c.NewBatch()
		for i := from; i < to; i++ {
			b.Insert("R", []int64{i, 0})
		}
		if from == 0 {
			b.Insert("S", []int64{0, 0})
		}
		if _, err := c.Commit(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	read := func(limit, rows int) float64 {
		url := fmt.Sprintf("/v1/result/rows?limit=%d", limit)
		return testing.AllocsPerRun(10, func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(deadlineRecorder{rec}, httptest.NewRequest(http.MethodGet, url, nil))
			if f := lastFrame(t, rec.Body.String()); f.Type != server.FrameReady || f.Count != rows {
				t.Fatalf("limit=%d: the read closed with %+v, want %d rows", limit, f, rows)
			}
		})
	}
	grow(0, 64)
	small := read(2048, 64)
	grow(64, 2048)
	large, framed := read(2048, 2048), read(64, 2048)
	perRow, perFrameRow := (large-small)/(2048-64), (framed-large)/2048
	t.Logf("one frame of 64 rows: %.0f allocations, of 2048: %.0f (%.4f per extra row); 32 frames of 64: %.0f (%.4f more per row)",
		small, large, perRow, framed, perFrameRow)
	if perRow >= 0.01 {
		t.Errorf("%.4f allocations per extra row of a frame, want < 0.01", perRow)
	}
	if perFrameRow >= 0.01 {
		t.Errorf("32 frames instead of one cost %.4f more allocations per row, want < 0.01", perFrameRow)
	}
}

// TestWholeReadAllocates bounds what one whole read of 65 536 rows at 2 048
// rows per frame allocates, client and server together, over loopback:
// at most 82 times, most of them net/http's per request (79 read here).
// Neither end allocates per frame, nor for a stream's buffers once one read
// has run: the server writes every frame, the closing one too, from a
// pooled writer's one buffer and pages, its rows frames after the first in
// 192 KiB chunks from the server's free list, and the client decodes every
// frame into the reused Frame of the FrameReader it keeps between reads. The
// count takes in net/http's pooled buffers and the server's pooled writers,
// which sync.Pool drops at random under -race, so a -race build skips it.
func TestWholeReadAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("net/http's pooled buffers are allocated afresh at random under -race")
	}
	_, _, c := newStack(t, server.Options{}, client.Options{PageLimit: 2048})
	const rows = 1 << 16
	b := c.NewBatch()
	for i := int64(0); i < rows; i++ {
		b.Insert("R", []int64{i, 0})
	}
	if _, err := c.Commit(context.Background(), b.Insert("S", []int64{0, 0})); err != nil {
		t.Fatal(err)
	}
	read := func() {
		seq, errf := c.All(context.Background(), "")
		n := 0
		for range seq {
			n++
		}
		if err := errf(); err != nil || n != rows {
			t.Fatalf("read %d rows (%v), want %d", n, err, rows)
		}
	}
	read() // the connection and the pools
	allocs := testing.AllocsPerRun(10, read)
	t.Logf("one read of %d rows in %d frames: %.0f allocations", rows, rows/2048, allocs)
	if allocs > 82 {
		t.Errorf("one read of %d rows in %d frames allocates %.0f times, want at most 82", rows, rows/2048, allocs)
	}
}

// discardWriter is a response writer that takes write deadlines and flushes
// as a connection does, counts the bytes of the body and keeps only their
// last tailSize in a fixed array, so what a test measures is the handler's
// allocation and not the body's buffer, however large its writes.
type discardWriter struct {
	header http.Header
	n      int // the bytes written
	tail   [tailSize]byte
}

// tailSize is the body bytes a discardWriter keeps: more than a closing
// frame's line.
const tailSize = 256

// Header implements http.ResponseWriter.
func (w *discardWriter) Header() http.Header { return w.header }

// WriteHeader implements http.ResponseWriter.
func (w *discardWriter) WriteHeader(int) {}

// Flush implements http.Flusher so the handler streams.
func (w *discardWriter) Flush() {}

// SetWriteDeadline lets http.ResponseController set deadlines.
func (w *discardWriter) SetWriteDeadline(time.Time) error { return nil }

// Write counts p and keeps its end in the tail.
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	end := p[max(0, len(p)-tailSize):]
	copy(w.tail[:], w.tail[len(end):])
	copy(w.tail[tailSize-len(end):], end)
	return len(p), nil
}

// lastLine returns the last line of the body, without its newline.
func (w *discardWriter) lastLine() []byte {
	tail := bytes.TrimSuffix(w.tail[tailSize-min(w.n, tailSize):], []byte("\n"))
	return tail[bytes.LastIndexByte(tail, '\n')+1:]
}

// scheduleWriter is a response writer that records every Write it is handed,
// whether a write deadline was set since the previous Write, and whether a
// Flush followed it before the next: the schedule a connection would see.
type scheduleWriter struct {
	header   http.Header
	writes   [][]byte
	deadline []bool
	flushed  []bool
	armed    bool // a deadline was set since the last Write
}

// Header implements http.ResponseWriter.
func (w *scheduleWriter) Header() http.Header { return w.header }

// WriteHeader implements http.ResponseWriter.
func (w *scheduleWriter) WriteHeader(int) {}

// Flush implements http.Flusher.
func (w *scheduleWriter) Flush() {
	if n := len(w.flushed); n > 0 {
		w.flushed[n-1] = true
	}
}

// SetWriteDeadline lets http.ResponseController set deadlines.
func (w *scheduleWriter) SetWriteDeadline(time.Time) error {
	w.armed = true
	return nil
}

// Write records a copy of p.
func (w *scheduleWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, slices.Clone(p))
	w.deadline = append(w.deadline, w.armed)
	w.flushed = append(w.flushed, false)
	w.armed = false
	return len(p), nil
}

// check holds the recorded writes to want, which are flushed where flushed
// says, and every one to a deadline of its own.
func (w *scheduleWriter) check(t *testing.T, want [][]byte, flushed []bool) {
	t.Helper()
	for i := range max(len(w.writes), len(want)) {
		switch {
		case i >= len(w.writes):
			t.Fatalf("%d writes, want %d: write %d, %.80q…, missing", len(w.writes), len(want), i, want[i])
		case i >= len(want):
			t.Fatalf("%d writes, want %d: write %d, %.80q…, extra", len(w.writes), len(want), i, w.writes[i])
		case !bytes.Equal(w.writes[i], want[i]):
			t.Fatalf("write %d of %d holds %d bytes, %.80q…; want %d bytes, %.80q…", i, len(want), len(w.writes[i]), w.writes[i], len(want[i]), want[i])
		case !w.deadline[i]:
			t.Errorf("write %d had no deadline of its own", i)
		case w.flushed[i] != flushed[i]:
			t.Errorf("write %d flushed %v, want %v", i, w.flushed[i], flushed[i])
		}
	}
}

// chunked is the schedule of a stream whose frames, one line each, are lines
// and which queues the frames lines[from:], the last a closing frame: the
// lines before them written and flushed one by one, then the queued ones'
// bytes cut into writes of server.ChunkSize bytes and whatever is left, only
// the last of them flushed.
func chunked(lines [][]byte, from int) (writes [][]byte, flushed []bool) {
	for _, l := range lines[:from] {
		writes, flushed = append(writes, l), append(flushed, true)
	}
	for queued := bytes.Join(lines[from:], nil); len(queued) > 0; {
		n := min(len(queued), server.ChunkSize)
		writes, flushed, queued = append(writes, queued[:n]), append(flushed, n == len(queued)), queued[n:]
	}
	return writes, flushed
}

// TestReadWriteSchedule pins when a read and a watch opening write and
// flush. A read writes and flushes its first rows frame alone, so its first
// row is on the wire at once; the bytes of its later rows frames go out in
// unflushed writes of server.ChunkSize bytes, and the ready frame goes out
// in one write with what is left, flushed. A watch's anchor frame is its
// first frame, so every rows frame of its dump is queued. Every write has a
// deadline of its own, and the bytes are those of the stream written frame
// by frame: the frames the snapshot's rows make, each as EncodeFrame writes
// it.
func TestReadWriteSchedule(t *testing.T) {
	eng, srv, c := newStack(t, server.Options{}, client.Options{})
	// A result and a view of 60 000 rows, about 900 KB of frames at 256 rows
	// a frame: four chunks and what is left.
	const rows, limit = 60000, 256
	b := c.NewBatch()
	for i := int64(0); i < rows; i++ {
		b.Insert("R", []int64{i, i}).Insert("S", []int64{i, i})
	}
	if _, err := c.Commit(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	// frames encodes seq as the rows frames, labelled view, of per rows each
	// that a stream writes for it: one empty frame for no rows.
	frames := func(seq iter.Seq2[[]int64, int64], view string, per int) (lines [][]byte) {
		f := server.Frame{Type: server.FrameRows, View: view}
		for row, mult := range seq {
			f.Rows, f.Mults = append(f.Rows, slices.Clone(row)), append(f.Mults, mult)
			if len(f.Rows) == per {
				lines, f.Rows, f.Mults = append(lines, server.EncodeFrame(&f)), nil, nil
			}
		}
		if len(f.Rows) > 0 || lines == nil {
			lines = append(lines, server.EncodeFrame(&f))
		}
		return lines
	}
	// The dump is of the largest view.
	var view string
	var viewRows iter.Seq2[[]int64, int64]
	viewCount := 0
	for _, v := range eng.Views() {
		seq, err := snap.ViewAll(v)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for range seq {
			n++
		}
		if n > viewCount {
			view, viewRows, viewCount = v, seq, n
		}
	}

	t.Run("read", func(t *testing.T) {
		lines := frames(snap.All(), "", limit)
		lines = append(lines, server.EncodeFrame(&server.Frame{Type: server.FrameReady, Epoch: snap.Epoch(), Count: rows}))
		want, flushed := chunked(lines, 1)
		if last := want[len(want)-1]; len(want) < 6 || len(last) == len(lines[len(lines)-1]) {
			t.Fatalf("%d writes, the last of %d bytes: the result does not fill several chunks and leave some frames queued at ready", len(want), len(last))
		}
		w := &scheduleWriter{header: make(http.Header)}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/result/rows?limit=%d", limit), nil))
		w.check(t, want, flushed)
	})
	t.Run("watch opening", func(t *testing.T) {
		anchor, err := json.Marshal(server.Frame{Type: server.FrameAnchor, Epoch: snap.Epoch(), Views: []string{view}})
		if err != nil {
			t.Fatal(err)
		}
		lines := [][]byte{append(anchor, '\n')}
		lines = append(lines, frames(viewRows, view, server.PageSize)...)
		lines = append(lines, server.EncodeFrame(&server.Frame{Type: server.FrameReady, Epoch: snap.Epoch()}))
		want, flushed := chunked(lines, 1)
		if viewCount < rows || len(want) < 6 {
			t.Fatalf("view %s: %d rows in %d writes, want a dump of several chunks", view, viewCount, len(want))
		}
		// The stream ends right after its opening.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		w := &scheduleWriter{header: make(http.Header)}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/watch?views="+url.QueryEscape(view), nil).WithContext(ctx))
		w.check(t, want, flushed)
	})
}

// evictingContext is a request context that has the server evict its oldest
// read, as a read opened past the cap does, the n-th time its Err is asked.
type evictingContext struct {
	context.Context
	srv *server.Server
	n   int
}

// Err evicts on the n-th call.
func (c *evictingContext) Err() error {
	if c.n--; c.n == 0 {
		server.EvictOldestRead(c.srv)
	}
	return c.Context.Err()
}

// TestEvictedReadWritesQueuedFrames evicts a read of one row per frame after
// it checked its second frame, so that frame is queued when the read sees
// the eviction at its third: the gone frame goes out in one write with the
// queued frame, flushed, and the read writes nothing more. The
// stream reads as whole lines — two rows frames, then one gone frame — and
// the next read, on the evicted read's writer if the pool hands it back,
// runs to its closing frame.
func TestEvictedReadWritesQueuedFrames(t *testing.T) {
	srv := newReadStack(t)
	w := &scheduleWriter{header: make(http.Header)}
	ctx := &evictingContext{Context: context.Background(), srv: srv, n: 2}
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/result/rows?limit=1", nil).WithContext(ctx))
	if len(w.writes) != 2 || !w.flushed[0] || !w.flushed[1] {
		t.Fatalf("writes %q flushed %v, want the first frame flushed, then the queued one and the gone frame flushed", w.writes, w.flushed)
	}
	fr := server.NewFrameReader(bytes.NewReader(bytes.Join(w.writes, nil)))
	var got []string
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("the stream %q does not read as frames: %v", w.writes, err)
		}
		switch {
		case f.Type == server.FrameRows && len(f.Rows) == 1:
			got = append(got, "rows")
		case f.Type == server.FrameError && f.Err.Code == server.CodeGone:
			got = append(got, "gone")
		default:
			got = append(got, fmt.Sprintf("%+v", *f))
		}
	}
	if want := []string{"rows", "rows", "gone"}; !slices.Equal(got, want) {
		t.Fatalf("the evicted read wrote %v, want %v", got, want)
	}
	if n := server.OpenReaders(srv); n != 0 {
		t.Fatalf("%d reads open after the handler returned", n)
	}
	// The next read takes the evicted one's writer, and is not evicted.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/result/rows?limit=1", nil))
	if f := lastFrame(t, rec.Body.String()); f.Type != server.FrameReady || f.Count != 4 {
		t.Fatalf("the read after the evicted one ended with %+v, want its closing frame", f)
	}
}

// TestStreamsHoldNoChunkPastFlush pins a chunk's lifetime: a stream takes one
// from the server's free list only to queue frames, and hands it back when
// it flushes them. A one-frame read takes none; a read of one row per frame
// takes one and hands it back; and a watcher whose anchor dump was queued
// holds none once its ready frame is out, nor while its event loop writes
// events.
func TestStreamsHoldNoChunkPastFlush(t *testing.T) {
	_, srv, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()
	if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{1, 2}).Insert("R", []int64{2, 2}).Insert("S", []int64{2, 3})); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ limit, free int }{{2, 0}, {1, 1}} {
		w := &discardWriter{header: make(http.Header)}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/result/rows?limit=%d", tc.limit), nil))
		if f, err := server.ParseFrame(w.lastLine()); err != nil || f.Type != server.FrameReady || f.Count != 2 {
			t.Fatalf("limit=%d: the read ended with %s", tc.limit, w.lastLine())
		}
		if n := server.FreeChunks(srv); n != tc.free {
			t.Fatalf("limit=%d: %d chunks free after the read, want %d", tc.limit, n, tc.free)
		}
	}

	w, err := c.Watch(ctx, client.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	free := func(what string) {
		waitFor(t, 5*time.Second, what+": the chunk back on the free list", func() bool { return server.FreeChunks(srv) == 1 })
	}
	free("after the watch opening")
	for i := range int64(3) {
		epoch, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{10 + i, 2}))
		if err != nil {
			t.Fatal(err)
		}
		for ev, err := range w.Events() {
			if err != nil || ev.Epoch != epoch {
				t.Fatalf("event at epoch %d (%v), want %d", ev.Epoch, err, epoch)
			}
			break
		}
		free(fmt.Sprintf("after the event at epoch %d", epoch))
	}
}

// TestViewStreamsAllocatePerFrame bounds the bytes that a view read and a
// watch opening allocate per row of the view they stream. Growing the
// largest view from 1 024 to 65 536 rows may cost under half a byte per
// extra row (about 0.2 is read here): its rows go from the snapshot into
// frames whose arrays the next frame refills, where copying the view first
// cost about 140 bytes a row.
func TestViewStreamsAllocatePerFrame(t *testing.T) {
	eng, srv, c := newStack(t, server.Options{}, client.Options{})
	// Every row a join key of its own: the root views are keyed by it.
	grow := func(from, to int64) {
		b := c.NewBatch()
		for i := from; i < to; i++ {
			b.Insert("R", []int64{i, i}).Insert("S", []int64{i, i})
		}
		if _, err := c.Commit(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	// largest names the biggest root view and counts its rows.
	largest := func() (view string, rows int) {
		s, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, v := range eng.Views() {
			r, _, err := s.ViewRows(v)
			if err != nil {
				t.Fatal(err)
			}
			if len(r) > rows {
				view, rows = v, len(r)
			}
		}
		return view, rows
	}
	// measure serves a request five times and returns the bytes one took.
	measure := func(target string, ctx context.Context) float64 {
		const runs = 5
		w := &discardWriter{header: make(http.Header)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx))
		}
		runtime.ReadMemStats(&after)
		if f, err := server.ParseFrame(w.lastLine()); err != nil || f.Type != server.FrameReady {
			t.Fatalf("%s ended with %s", target, w.lastLine())
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	// The watch stream ends right after its opening.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		run  func(view string) float64
	}{
		{"view read", func(view string) float64 {
			return measure("/v1/views/"+url.PathEscape(view)+"/rows", context.Background())
		}},
		{"watch anchor", func(view string) float64 {
			return measure("/v1/watch?views="+url.QueryEscape(view), cancelled)
		}},
	}

	grow(0, 1024)
	view, small := largest()
	for _, tc := range cases {
		tc.run(view) // warm the pools
	}
	smallBytes := make([]float64, len(cases))
	for i, tc := range cases {
		smallBytes[i] = tc.run(view)
	}
	grow(1024, 65536)
	view, large := largest()
	if small < 1000 || large < 65000 {
		t.Fatalf("the largest view grew from %d to %d rows, want about 1 024 to 65 536", small, large)
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			largeBytes := tc.run(view)
			perRow := (largeBytes - smallBytes[i]) / float64(large-small)
			t.Logf("%d rows: %.0f bytes, %d rows: %.0f bytes (%.2f per extra row)", small, smallBytes[i], large, largeBytes, perRow)
			// Under -race sync.Pool drops entries at random, so encoding/json's
			// pooled encode state is often allocated afresh for a frame.
			if perRow >= 0.5 && !raceEnabled {
				t.Errorf("%.2f bytes per extra row of the view, want < 0.5: the view is copied, not streamed", perRow)
			}
		})
	}
}

// TestWatchBufferIsCapped checks ?buffer, which sizes a ring allocated
// before the first frame, is refused above the cap instead of allocated.
func TestWatchBufferIsCapped(t *testing.T) {
	_, _, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()
	w, err := c.Watch(ctx, client.WatchOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatalf("buffer at the cap: %v", err)
	}
	w.Close()
	w, err = c.Watch(ctx, client.WatchOptions{Buffer: 1<<16 + 1})
	if err == nil {
		w.Close()
	}
	var we *server.WireError
	if !errors.As(err, &we) || we.Code != server.CodeBadRequest {
		t.Fatalf("buffer above the cap: %v, want a %s wire error", err, server.CodeBadRequest)
	}
}

// TestStatsRacesCommit reads /v1/stats and /metrics while commits are in
// flight: N, the counters and the epoch are the writer's, so the handlers
// must read them under the engine's lock. It only means something under
// -race.
func TestStatsRacesCommit(t *testing.T) {
	_, srv, c := newStack(t, server.Options{}, client.Options{})
	ctx := context.Background()
	const rounds = 300
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); i < rounds; i++ {
			if _, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{i, i}).Insert("S", []int64{i, i})); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := c.Stats(ctx); err != nil {
				t.Errorf("stats %d: %v", i, err)
				return
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("metrics status %d", rec.Code)
				return
			}
		}
	}()
	wg.Wait()
	sr, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.N != 2*rounds || sr.Engine.Batches != rounds {
		t.Fatalf("after %d commits: N = %d, batches = %d", rounds, sr.N, sr.Engine.Batches)
	}
}
