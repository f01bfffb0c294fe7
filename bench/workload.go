package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"ivmeps"
	"ivmeps/internal/client"
	"ivmeps/internal/server"
)

// config is one workload: its query, data shape, how it is driven, and how
// much work one repetition does. Everything here is fixed; a run varies only
// the seed and the number of repetitions.
type config struct {
	name  string
	query string
	opts  ivmeps.Options
	data  streamConfig

	remote     bool // through internal/server + internal/client over loopback TCP
	durable    bool // WAL at SyncAlways in a directory under tmpRoot
	committers int  // concurrent callers in the unwatched write burst W1

	grow int  // lib-grow: each burst grows N to grow× and shrinks it back; 0 = sliding window
	tiny bool // shrunk by smoke(): too small for every key-degree threshold to be crossed

	commitOps int // ops per commit; 1 means Engine.Apply
	w1Commits int // commits per unwatched burst W1 (sliding shape)
	w2Commits int // commits per watched burst W2 (sliding shape)
	enumCap   int // rows after which an enumeration pass stops
	opens     int // lib-*: fresh enumeration opens per repetition
	passes    int // svc-*: full paginated reads per repetition
	pageLimit int // rows per page on remote reads
}

// Sizes were chosen on the 2-vCPU box this benchmark was written on so that
// one cold set-up takes ≥ 0.5 s, one repetition 0.7–0.9 s and a whole run
// under 25 s (92 runs have to fit 3 420 s, slow stretches of the machine
// included); README.md lists the measured sizes and durations.
var (
	// Q(A, C) = R(A, B), S(B, C) joins on B; Q(A, B, C) = R(A, B), S(A, C) on A.
	twoPath = func(base, window int) []relSpec {
		return []relSpec{{"R", 1, base, window}, {"S", 0, base, window}}
	}
	// The service workloads keep S a hundred times R: 525 000 tuples make
	// set-up take half a second, while a result of 65 000 rows (|R|·|S| ÷
	// keys, thirteen per R tuple) keeps a full paginated read to a fifth of one.
	star = []relSpec{{"R", 0, 5000, 2500}, {"S", 0, 520000, 30000}}

	configs = []*config{
		{
			name:  "lib-skew",
			query: "Q(A, C) = R(A, B), S(B, C)",
			opts:  ivmeps.Options{Epsilon: 0.5, Workers: 1},
			// A repetition's two bursts together insert exactly one table of
			// keys per relation (20 000 commits = 5 000 inserts + 5 000
			// deletes per relation) and delete the table dealt two earlier,
			// so whatever the seed a repetition touches the same multiset of
			// keys: view_deltas_per_update then differs by 0.04 % between
			// seeds, against 0.5 % with repetitions that cut tables at random.
			data: streamConfig{rels: twoPath(30000, 10000), keys: 30000, skew: 1.15, table: 5000, lanes: 1},

			committers: 1,
			commitOps:  1, w1Commits: 15000, w2Commits: 5000,
			enumCap: 100000, opens: 10000,
		},
		{
			name:  "lib-grow",
			query: "Q(A, C) = R(A, B), S(B, C)",
			opts:  ivmeps.Options{Epsilon: 0.5, Workers: 0},
			data:  streamConfig{rels: twoPath(1500, 1500), keys: 7500, skew: 1.15, table: 1500, lanes: 1},

			committers: 1,
			grow:       5, commitOps: 500,
			enumCap: 80000, opens: 8000,
		},
		{
			name:  "svc-mixed",
			query: "Q(A, B, C) = R(A, B), S(A, C)",
			opts:  ivmeps.Options{Epsilon: 0.5, Workers: 0},
			data:  streamConfig{rels: star, keys: 40000, table: 20000, lanes: 2},

			remote: true, committers: 1,
			commitOps: 32, w1Commits: 800, w2Commits: 500,
			enumCap: 400000, passes: 2, pageLimit: 2048,
		},
		{
			name:  "svc-durable",
			query: "Q(A, B, C) = R(A, B), S(A, C)",
			opts:  ivmeps.Options{Epsilon: 0.5, Workers: 0},
			data:  streamConfig{rels: star, keys: 40000, table: 20000, lanes: 2},

			remote: true, durable: true, committers: 2,
			commitOps: 32, w1Commits: 480, w2Commits: 400,
			enumCap: 400000, passes: 2, pageLimit: 2048,
		},
	}
)

// smoke shrinks a workload so its whole life cycle runs in well under a
// second; the tests use it, and it changes sizes only.
func (c *config) smoke() *config {
	s := *c
	s.tiny = true
	s.data.rels = append([]relSpec(nil), c.data.rels...)
	for i := range s.data.rels {
		s.data.rels[i].base /= 20
		s.data.rels[i].window /= 20
	}
	s.data.keys /= 20
	s.data.table /= 20
	s.w1Commits = max(c.w1Commits/40, 16)
	s.w2Commits = max(c.w2Commits/40, 16)
	s.enumCap /= 20
	s.opens = max(c.opens/200, 2)
	if c.commitOps > 32 {
		s.commitOps = c.commitOps / 10
	}
	return &s
}

func findConfig(name string) *config {
	for _, c := range configs {
		if c.name == name {
			return c
		}
	}
	return nil
}

// tmpRoot is where the durable workload keeps its log: a directory of the
// checkout, so that fsync goes to the disk the repository is on and nothing
// is written outside the checkout. run.sh and .gitignore know the name.
const tmpRoot = ".bench_build/tmp"

// setupTimes is one cold set-up's duration and, of it, the two engine phases
// the per-layer metrics report.
type setupTimes struct {
	total, load, build time.Duration
}

// instance is one set-up of a workload: engine, and for svc-* the server,
// listener and clients around it.
type instance struct {
	cfg *config
	st  *stream
	q   *ivmeps.Query
	eng *ivmeps.Engine

	callers []backend // callers[0] also reads and watches
	reader  *client.Client
	srv     *server.Server
	hs      *httptest.Server
	conns   []*http.Transport
	walDir  string

	lastRebal int64 // rebalance counter total at the last traced commit (lib-grow)
}

// setup performs one cold set-up: generate inputs → New → Load → Build
// (durable: → WAL create + initial checkpoint) (remote: → server + listener +
// clients + one /healthz round trip).
func (c *config) setup(seed int64) (*instance, setupTimes, error) {
	var ts setupTimes
	start := time.Now()
	in := &instance{cfg: c}
	in.st = newStream(seed, c.data)

	q, err := ivmeps.ParseQuery(c.query)
	if err != nil {
		return nil, ts, err
	}
	in.q = q
	opts := c.opts
	if c.durable {
		if err := os.MkdirAll(tmpRoot, 0o777); err != nil {
			return nil, ts, err
		}
		in.walDir, err = os.MkdirTemp(tmpRoot, "wal-")
		if err != nil {
			return nil, ts, err
		}
		opts.Durability = ivmeps.Durability{Dir: in.walDir, Sync: ivmeps.SyncAlways}
	}
	in.eng, err = ivmeps.New(q, opts)
	if err != nil {
		in.close()
		return nil, ts, err
	}

	t := time.Now()
	in.st.liveRows(func(rel int, row []int64) {
		if e := in.eng.Load(c.data.rels[rel].name, row); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		in.close()
		return nil, ts, err
	}
	ts.load = time.Since(t)

	t = time.Now()
	if err := in.eng.Build(); err != nil {
		in.close()
		return nil, ts, err
	}
	ts.build = time.Since(t)

	if c.grow > 0 {
		// The first grow-and-shrink cycle takes the engine's size threshold M
		// from its preprocessing value to the range it then oscillates in, and
		// the second is the first that rebalances as every later one will;
		// both are what a user pays before the cyclic steady state, so they
		// are set-up.
		prime := &meter{rep: -1}
		loc := newLocal(in.eng)
		for cycle := 0; cycle < 2; cycle++ {
			for _, cm := range append(in.genGrow(c.data.rels[0].base*c.grow), in.genShrink(c.data.rels[0].base)...) {
				in.send(prime, loc, -1, cm)
			}
		}
		if prime.failed > 0 {
			in.close()
			return nil, ts, fmt.Errorf("priming cycle: %s", prime.errs[0])
		}
	}

	if c.remote {
		if err := in.serve(); err != nil {
			in.close()
			return nil, ts, err
		}
	} else {
		in.callers = []backend{newLocal(in.eng)}
	}
	ts.total = time.Since(start)
	return in, ts, nil
}

// serve puts the engine behind a loopback listener and connects one client
// per caller, each with its own connection pool so that callers never share
// a TCP connection.
func (in *instance) serve() error {
	c := in.cfg
	in.srv = server.New(in.eng, server.Options{Query: c.query})
	in.hs = httptest.NewServer(in.srv)
	for i := 0; i < c.committers; i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 4}
		in.conns = append(in.conns, tr)
		cl, err := client.New(in.hs.URL, client.Options{HTTPClient: &http.Client{Transport: tr}, PageLimit: c.pageLimit})
		if err != nil {
			return err
		}
		if i == 0 {
			in.reader = cl
		}
		in.callers = append(in.callers, newRemote(cl))
	}
	resp, err := (&http.Client{Transport: in.conns[0]}).Get(in.hs.URL + "/healthz")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// close tears the instance down: listener, connections, engine (which
// flushes and closes the WAL), and the WAL directory.
func (in *instance) close() error {
	if in.hs != nil {
		in.srv.Drain()
		in.hs.Close()
		for _, tr := range in.conns {
			tr.CloseIdleConnections()
		}
		in.hs = nil
	}
	var err error
	if in.eng != nil {
		err = in.eng.Close()
		in.eng = nil
	}
	if in.walDir != "" {
		if rerr := os.RemoveAll(in.walDir); err == nil {
			err = rerr
		}
		in.walDir = ""
	}
	return err
}
