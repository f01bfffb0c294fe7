package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Hand-rolled Prometheus text exposition (no client_golang — go.mod stays
// dependency-free): fixed atomic counters per endpoint, one commit-latency
// histogram with static buckets, and point-in-time gauges read from the
// engine at scrape time. Everything here is lock-free on the request path.

// endpoint enumerates the labeled request counters.
type endpoint int

// The metered endpoints, in exposition order.
const (
	epCommit endpoint = iota
	epRows
	epWatch
	epStats
	epHealth
	epMetrics
	numEndpoints
)

// endpointNames are the exposition label values.
var endpointNames = [numEndpoints]string{"commit", "rows", "watch", "stats", "healthz", "metrics"}

// latBuckets are the commit-latency histogram bucket upper bounds, in
// seconds: 100µs to ~13s, quadrupling — wide enough to cover SyncAlways
// fsync latency at the top and loopback commits at the bottom.
var latBuckets = [...]float64{100e-6, 400e-6, 1.6e-3, 6.4e-3, 25.6e-3, 102.4e-3, 409.6e-3, 1.6384, 6.5536, 13.1072}

// metrics is the server's metric state.
type metrics struct {
	requests [numEndpoints]atomic.Uint64 // requests served, by endpoint
	errors   [numEndpoints]atomic.Uint64 // non-2xx responses, by endpoint

	commitBuckets [len(latBuckets) + 1]atomic.Uint64 // +Inf overflow in the last slot
	commitCount   atomic.Uint64
	commitSumNs   atomic.Uint64

	watchers           atomic.Int64 // live watch streams
	watchEvicted       atomic.Uint64
	watchDrained       atomic.Uint64
	watchWriteTimeouts atomic.Uint64 // streams closed because the peer stopped reading
	readWriteTimeouts  atomic.Uint64 // the same, for read streams
	commitsOK          atomic.Uint64
	commitsFailed      atomic.Uint64
}

// observeCommit records one successful commit's wall-clock latency.
func (m *metrics) observeCommit(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(latBuckets) && sec > latBuckets[i] {
		i++
	}
	m.commitBuckets[i].Add(1)
	m.commitCount.Add(1)
	m.commitSumNs.Add(uint64(d.Nanoseconds()))
}

// hit counts a request and, for a non-2xx status, an error.
func (m *metrics) hit(ep endpoint, status int) {
	m.requests[ep].Add(1)
	if status >= 400 {
		m.errors[ep].Add(1)
	}
}

// handleMetrics writes the Prometheus text exposition. Gauges (epoch,
// database size, live watchers, open reads) are sampled at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := &s.metrics
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP ivmd_requests_total Requests served, by endpoint.\n# TYPE ivmd_requests_total counter\n")
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		fmt.Fprintf(w, "ivmd_requests_total{endpoint=%q} %d\n", endpointNames[ep], m.requests[ep].Load())
	}
	fmt.Fprintf(w, "# HELP ivmd_request_errors_total Non-2xx responses, by endpoint.\n# TYPE ivmd_request_errors_total counter\n")
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		fmt.Fprintf(w, "ivmd_request_errors_total{endpoint=%q} %d\n", endpointNames[ep], m.errors[ep].Load())
	}

	fmt.Fprintf(w, "# HELP ivmd_commits_total Commit outcomes.\n# TYPE ivmd_commits_total counter\n")
	fmt.Fprintf(w, "ivmd_commits_total{outcome=\"ok\"} %d\n", m.commitsOK.Load())
	fmt.Fprintf(w, "ivmd_commits_total{outcome=\"rejected\"} %d\n", m.commitsFailed.Load())

	fmt.Fprintf(w, "# HELP ivmd_commit_latency_seconds Wall-clock latency of successful commits.\n# TYPE ivmd_commit_latency_seconds histogram\n")
	cum := uint64(0)
	for i, ub := range latBuckets {
		cum += m.commitBuckets[i].Load()
		fmt.Fprintf(w, "ivmd_commit_latency_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", ub), cum)
	}
	cum += m.commitBuckets[len(latBuckets)].Load()
	fmt.Fprintf(w, "ivmd_commit_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "ivmd_commit_latency_seconds_sum %g\n", float64(m.commitSumNs.Load())/1e9)
	fmt.Fprintf(w, "ivmd_commit_latency_seconds_count %d\n", m.commitCount.Load())

	fmt.Fprintf(w, "# HELP ivmd_watchers Live watch streams.\n# TYPE ivmd_watchers gauge\n")
	fmt.Fprintf(w, "ivmd_watchers %d\n", m.watchers.Load())
	fmt.Fprintf(w, "# HELP ivmd_watch_evictions_total Watchers evicted for lagging.\n# TYPE ivmd_watch_evictions_total counter\n")
	fmt.Fprintf(w, "ivmd_watch_evictions_total %d\n", m.watchEvicted.Load())
	fmt.Fprintf(w, "# HELP ivmd_watch_drained_total Watch streams ended by an orderly drain.\n# TYPE ivmd_watch_drained_total counter\n")
	fmt.Fprintf(w, "ivmd_watch_drained_total %d\n", m.watchDrained.Load())
	fmt.Fprintf(w, "# HELP ivmd_watch_write_timeouts_total Watch streams closed because the peer stopped reading.\n# TYPE ivmd_watch_write_timeouts_total counter\n")
	fmt.Fprintf(w, "ivmd_watch_write_timeouts_total %d\n", m.watchWriteTimeouts.Load())

	fmt.Fprintf(w, "# HELP ivmd_read_write_timeouts_total Read streams closed because the peer stopped reading.\n# TYPE ivmd_read_write_timeouts_total counter\n")
	fmt.Fprintf(w, "ivmd_read_write_timeouts_total %d\n", m.readWriteTimeouts.Load())
	fmt.Fprintf(w, "# HELP ivmd_page_readers Open read streams (a query-result read pins its snapshot until it ends).\n# TYPE ivmd_page_readers gauge\n")
	fmt.Fprintf(w, "ivmd_page_readers %d\n", s.readers.count())

	fmt.Fprintf(w, "# HELP ivmd_epoch Committed snapshot epoch.\n# TYPE ivmd_epoch gauge\n")
	fmt.Fprintf(w, "ivmd_epoch %d\n", s.eng.Epoch())
	fmt.Fprintf(w, "# HELP ivmd_db_size Distinct tuples across base relations (N).\n# TYPE ivmd_db_size gauge\n")
	fmt.Fprintf(w, "ivmd_db_size %d\n", s.eng.N())
}
