package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark makes into a layer.
// Spans are recorded by the benchmark's own code only — this change may not
// edit the program — so the innermost span is always "one public call".
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, −1 at the top
	Rep    int32  `json:"rep"`    // repetition, −1 outside the repetitions
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, which is how untraced runs pay nothing but a nil
// check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex // svc-durable records from two committer goroutines
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<20)}
}

// begin opens a span and returns its index, to be passed to end and used as
// the parent of spans nested inside it.
func (t *tracer) begin(name string, parent int32, rep int) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: int32(rep), Start: int64(time.Since(t.origin))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(time.Since(t.origin))
	t.mu.Unlock()
}

// selfTimes returns every span's self time: its duration minus the part of
// that interval its direct children cover. Children of one parent are
// recorded by one goroutine in sequence, so they never overlap and covering
// is a plain sum. (The two committers of svc-durable do overlap; their
// parent's self time is then the block's wall time minus the callers' summed
// busy time, negative when both were busy — read it as "no harness idle time".)
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].End - spans[i].Start
		}
	}
	return self
}

// write dumps the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
