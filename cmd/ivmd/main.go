// Command ivmd serves one ivmeps engine over HTTP: NDJSON commits, streamed
// snapshot reads, and per-commit watch streaming (see docs/SERVICE.md for the
// wire protocol). One process owns one query and, optionally, one durable log
// directory.
//
// Usage:
//
//	ivmd -query 'Q(A, C) = R(A, B), S(B, C)' [flags]
//
// Flags:
//
//	-query     the hierarchical query to serve (required)
//	-listen    listen address (default 127.0.0.1:8344; use :0 for an
//	           ephemeral port — the chosen address is printed on stdout)
//	-epsilon   ε trade-off parameter in [0, 1] (default 0.5)
//	-dir       durable log directory; empty serves in-memory only. An
//	           initialized directory is recovered (the query must match);
//	           an empty or missing one is created fresh.
//	-sync      WAL fsync policy: off, batched, or always (default batched)
//	-segment-bytes  log segment rotation threshold (0 = library default)
//	-drain-timeout  grace period for in-flight requests on shutdown
//
// On SIGTERM or SIGINT the daemon drains: the health probe flips to 503, new
// commits and watch streams are refused, live watch streams get a terminal
// "end" frame, in-flight requests finish (up to -drain-timeout), and the WAL
// is flushed before exit. A second signal forces immediate exit with code 3.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ivmeps"
	"ivmeps/internal/server"
	"ivmeps/internal/wal"
)

// Connection limits: a peer that never finishes its request headers, or
// parks an idle keep-alive connection, is dropped after these. ReadTimeout
// and WriteTimeout stay unset on purpose — a watch stream is one response
// written for as long as the client listens, and a commit body may be
// 64 MiB of NDJSON; both are legitimately long. Variables only so the
// tests can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	os.Exit(run())
}

// run is main with an exit code, so deferred cleanup executes.
func run() int {
	var (
		query        = flag.String("query", "", "hierarchical query to serve (required)")
		listen       = flag.String("listen", "127.0.0.1:8344", "listen address (use :0 for an ephemeral port)")
		epsilon      = flag.Float64("epsilon", 0.5, "ε trade-off parameter in [0, 1]")
		dir          = flag.String("dir", "", "durable log directory (empty = in-memory)")
		syncMode     = flag.String("sync", "batched", "WAL fsync policy: off, batched, or always")
		segmentBytes = flag.Int64("segment-bytes", 0, "log segment rotation threshold (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on shutdown")
	)
	flag.Parse()
	log.SetPrefix("ivmd: ")
	log.SetFlags(0)

	if *query == "" {
		log.Print("missing required -query")
		flag.Usage()
		return 2
	}
	q, err := ivmeps.ParseQuery(*query)
	if err != nil {
		log.Printf("bad -query: %v", err)
		return 2
	}
	var sm ivmeps.SyncMode
	switch *syncMode {
	case "off":
		sm = ivmeps.SyncOff
	case "batched":
		sm = ivmeps.SyncBatched
	case "always":
		sm = ivmeps.SyncAlways
	default:
		log.Printf("bad -sync %q (want off, batched, or always)", *syncMode)
		return 2
	}

	opts := ivmeps.Options{Epsilon: *epsilon}
	if *dir != "" {
		opts.Durability = ivmeps.Durability{Dir: *dir, Sync: sm, SegmentBytes: *segmentBytes}
	}
	eng, err := openEngine(q, opts)
	if err != nil {
		log.Printf("opening engine: %v", err)
		return 1
	}
	defer eng.Close()

	srv := server.New(eng, server.Options{Query: q.String()})
	hs := newHTTPServer(srv)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Printf("listen %s: %v", *listen, err)
		return 1
	}
	// Tests parse this line to find an ephemeral port; keep its shape.
	fmt.Printf("ivmd: listening on %s\n", ln.Addr())
	log.Printf("serving %s (epsilon=%g dir=%q sync=%s)", q, eng.Epsilon(), *dir, *syncMode)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		log.Printf("caught %s; draining (again to force exit)", sig)
	case err := <-serveErr:
		log.Printf("serve: %v", err)
		return 1
	}

	// Orderly shutdown: refuse new work and end watch streams with a
	// terminal frame, wait for in-flight requests, then flush the WAL. A
	// second signal skips all of that.
	go func() {
		sig := <-sigCh
		log.Printf("caught %s again; forcing exit", sig)
		os.Exit(3)
	}()
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v (in-flight requests abandoned)", err)
	}
	if err := eng.Close(); err != nil {
		log.Printf("closing engine: %v", err)
		return 1
	}
	log.Print("drained; bye")
	return 0
}

// openEngine recovers a durable engine from dir when it holds a log, and
// otherwise builds a fresh (empty) engine — creating the log when
// durability is configured.
func openEngine(q *ivmeps.Query, opts ivmeps.Options) (*ivmeps.Engine, error) {
	if opts.Durability.Dir != "" {
		eng, err := ivmeps.Open(q, opts)
		if err == nil {
			log.Printf("recovered %s", opts.Durability.Dir)
			return eng, nil
		}
		if !errors.Is(err, wal.ErrNoCheckpoint) {
			return nil, err
		}
		// Uninitialized directory: fall through and create it fresh.
	}
	eng, err := ivmeps.New(q, opts)
	if err != nil {
		return nil, err
	}
	if err := eng.Build(); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}
