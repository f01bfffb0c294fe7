package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ivmeps"
	"ivmeps/internal/client"
	"ivmeps/internal/server"
	"ivmeps/internal/wal"
)

const daemonQuery = "Q(A, C) = R(A, B), S(B, C)"

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// daemonBinary builds the ivmd binary once per test run.
func daemonBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ivmd-bin-")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "ivmd")
		out, err := exec.Command("go", "build", "-o", buildBin, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// daemon is one running ivmd under test.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error // cmd.Wait result
}

// startDaemon launches ivmd on an ephemeral port with extra flags and waits
// for its listen banner.
func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-query", daemonQuery, "-listen", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(daemonBinary(t), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.done
	})

	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "ivmd: listening on "); ok {
				select {
				case banner <- rest:
				default:
				}
			}
		}
	}()
	go func() { d.done <- cmd.Wait() }()

	select {
	case d.addr = <-banner:
	case err := <-d.done:
		d.done <- err
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not print its listen banner")
	}
	return d
}

// exitCode waits for the daemon to exit and returns its code.
func (d *daemon) exitCode(t *testing.T, within time.Duration) int {
	t.Helper()
	select {
	case err := <-d.done:
		d.done <- err
		if err == nil {
			return 0
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		t.Fatalf("daemon exit: %v", err)
		return -1
	case <-time.After(within):
		t.Fatalf("daemon did not exit within %v", within)
		return -1
	}
}

func TestDaemonGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-dir", dir, "-sync", "off")
	ctx := context.Background()

	c, err := client.New("http://"+d.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := c.NewBatch()
	for i := int64(0); i < 5; i++ {
		b.Insert("R", []int64{i, i}).Insert("S", []int64{i, i})
	}
	epoch, err := c.Commit(ctx, b)
	if err != nil {
		t.Fatal(err)
	}

	// A live watch stream must end with the terminal drain frame, not a
	// dropped connection.
	w, err := c.Watch(ctx, client.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, err := range w.Events() {
		if err != nil {
			t.Fatalf("watch stream errored during daemon shutdown: %v", err)
		}
	}
	if !w.Drained() {
		t.Fatal("watch stream was dropped instead of drained")
	}
	if code := d.exitCode(t, 15*time.Second); code != 0 {
		t.Fatalf("daemon exit code = %d, want 0", code)
	}

	// The drain checkpointed the last committed epoch: recovery starts from
	// it and replays no record.
	rec, err := wal.BeginRecovery(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint.Epoch != epoch {
		t.Fatalf("newest checkpoint at epoch %d, want the last committed %d", rec.Checkpoint.Epoch, epoch)
	}
	replayed := 0
	if err := rec.Replay(false, func(wal.Record) error { replayed++; return nil }); err != nil || replayed != 0 {
		t.Fatalf("recovery replays %d records (%v), want none", replayed, err)
	}

	// The WAL was flushed on the way out: reopening the directory recovers
	// the final committed epoch and state.
	q := ivmeps.MustParseQuery(daemonQuery)
	eng, err := ivmeps.Open(q, ivmeps.Options{Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncOff}})
	if err != nil {
		t.Fatalf("reopening the daemon's log: %v", err)
	}
	defer eng.Close()
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Epoch() != epoch {
		t.Fatalf("recovered epoch = %d, want %d", snap.Epoch(), epoch)
	}
	if snap.Count() != 5 {
		t.Fatalf("recovered result count = %d, want 5", snap.Count())
	}
}

func TestDaemonForcedExit(t *testing.T) {
	d := startDaemon(t, "-drain-timeout", "60s")

	// Wedge shutdown: a commit whose body never finishes keeps one request
	// in flight, so graceful Shutdown blocks on it (up to -drain-timeout).
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/commit HTTP/1.1\r\nHost: %s\r\nContent-Length: 1000000\r\n\r\n", d.addr)
	fmt.Fprint(conn, `{"rel":"R","row":`) // partial body, never completed
	time.Sleep(100 * time.Millisecond)

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the drain start and block
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.exitCode(t, 15*time.Second); code != 3 {
		t.Fatalf("daemon exit code after second SIGTERM = %d, want 3", code)
	}
}

// TestHeaderTimeoutSparesWatchStream: a peer that stalls inside its request
// line is dropped once readHeaderTimeout passes, while a watch stream opened
// before it — one response, written for as long as the client listens —
// outlives the same timeout and still delivers the next commit.
func TestHeaderTimeoutSparesWatchStream(t *testing.T) {
	old := readHeaderTimeout
	readHeaderTimeout = 300 * time.Millisecond
	t.Cleanup(func() { readHeaderTimeout = old })

	q := ivmeps.MustParseQuery(daemonQuery)
	eng, err := openEngine(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	hs := newHTTPServer(server.New(eng, server.Options{Query: q.String()}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	ctx := context.Background()
	c, err := client.New("http://"+ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(ctx, client.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "GET /v1/sta") // half a request line, never completed
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start), err)
	}
	if d := time.Since(start); d < readHeaderTimeout {
		t.Fatalf("stalled connection closed after %v, before the %v header timeout", d, readHeaderTimeout)
	}

	// The watch stream has now been open for longer than the timeout.
	epoch, err := c.Commit(ctx, c.NewBatch().Insert("R", []int64{1, 2}).Insert("S", []int64{2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	for ev, err := range w.Events() {
		if err != nil {
			t.Fatalf("watch stream did not outlive the header timeout: %v", err)
		}
		if ev.Epoch == epoch {
			break
		}
	}
}
