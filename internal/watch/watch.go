// Package watch gives each subscriber of the engine's per-commit root-view
// delta stream its own bounded ring. A Sub is itself one of the engine's
// commit sinks (core.CommitSink): the committer hands every record to every
// Sub, and each fills its ring (a buffered channel of shared,
// reference-counted CommitDelta records) without ever blocking — a
// subscriber whose ring is full is evicted with a LaggedError carrying the
// exact epoch range it missed, and every other subscriber's stream is
// unaffected.
//
// The package spawns no goroutines: publication runs on the committer's
// goroutine (under the engine's writer lock), consumption on each
// subscriber's. Lock order is engine.mu → Sub.mu; no path acquires them in
// the other order — Close and Next release Sub.mu before they call the
// engine.
//
// Gap-freedom: Subscribe captures the anchor snapshot and registers the
// ring under one writer-lock hold (core.SubscribeCommits), so the ring
// receives every commit with epoch > anchor — the first record a
// subscriber reads is always anchor+1, and records arrive in strictly
// consecutive epoch order until the subscriber is closed or evicted.
package watch

import (
	"fmt"
	"sync"

	"ivmeps/internal/core"
)

// DefaultBuffer is the ring capacity used when Subscribe is given a
// non-positive buffer: a subscriber may fall this many commits behind the
// writer before it is evicted.
const DefaultBuffer = 64

// LaggedError reports a subscriber evicted for falling behind: the commits
// with epochs From through To (inclusive) were dropped from its stream.
// The stream delivered every epoch before From in order, and nothing after
// To; a consumer resynchronizes by taking a fresh snapshot-anchored
// subscription.
type LaggedError struct {
	From, To uint64
}

// Error formats the dropped range.
func (e *LaggedError) Error() string {
	return fmt.Sprintf("watch: subscriber lagged: dropped epochs %d..%d (ring full)", e.From, e.To)
}

// Subscribe registers a new subscriber of e's commit stream with the given
// ring capacity (DefaultBuffer if non-positive) and returns it with its
// anchor snapshot: the subscriber's stream starts at the snapshot's epoch
// + 1, gap-free. The caller owns the snapshot and must Close it; the
// subscriber must be Closed when done — the last one to leave returns the
// engine's commit path to its zero-overhead state.
func Subscribe(e *core.Engine, buffer int) (*Sub, *core.Snapshot, error) {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	s := &Sub{
		e:    e,
		ring: make(chan *core.CommitDelta, buffer),
		done: make(chan struct{}),
	}
	snap, err := e.SubscribeCommits(s)
	if err != nil {
		return nil, nil, err
	}
	return s, snap, nil
}

// Sub is one subscription: a bounded ring of commit records. Next is for a
// single consumer goroutine; Close may be called from any goroutine, any
// number of times, including concurrently with Next.
type Sub struct {
	e    *core.Engine
	ring chan *core.CommitDelta
	done chan struct{}

	mu     sync.Mutex
	lag    *LaggedError // set by the publisher at eviction; grows until unsubscribed
	closed bool
}

// PublishCommit implements core.CommitSink: it runs on the committer's
// goroutine under the engine's writer lock, once per commit in epoch
// order. Delivery is one non-blocking ring send; a full ring evicts the
// subscriber (close the ring, start the gap), and an already-evicted one
// just extends its gap until the consumer notices.
func (s *Sub) PublishCommit(cd *core.CommitDelta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lag != nil {
		s.lag.To = cd.Epoch
		return
	}
	cd.Retain()
	select {
	case s.ring <- cd:
	default:
		cd.Release()
		s.lag = &LaggedError{From: cd.Epoch, To: cd.Epoch}
		// Closing the ring is safe: sends and the close both happen here,
		// under the engine's writer lock, and a closed ring is never sent to
		// again (the lag marker above gates every later publish). The
		// consumer drains the buffered prefix, then sees the close.
		close(s.ring)
	}
}

// Next blocks until the next commit record, the subscription is closed, or
// an eviction surfaces. It returns exactly one of:
//
//   - (record, nil): the next commit in epoch order — the caller must
//     Release the record when done with it (its contents are shared with
//     other subscribers and recycled after the last Release);
//   - (nil, *LaggedError): the subscriber was evicted; the buffered prefix
//     has been fully delivered and the error's From..To is the exact gap.
//     The subscription is detached — further Next calls keep reporting the
//     same gap;
//   - (nil, ErrClosed): Close was called.
func (s *Sub) Next() (*core.CommitDelta, error) {
	select {
	case cd, ok := <-s.ring:
		if ok {
			return cd, nil
		}
		// Evicted, buffered prefix consumed. Unsubscribe first so the
		// publisher stops extending the gap, then read its final extent.
		s.e.UnsubscribeCommits(s)
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.lag == nil {
			return nil, ErrClosed
		}
		return nil, &LaggedError{From: s.lag.From, To: s.lag.To}
	case <-s.done:
		return nil, ErrClosed
	}
}

// ErrClosed reports a Next call on a subscription whose Close was called
// (or that already surfaced its eviction).
var ErrClosed = fmt.Errorf("watch: subscription closed")

// Close ends the subscription: the engine stops delivering to it, any
// blocked Next returns ErrClosed, and buffered records are released.
// Idempotent and safe from any goroutine.
func (s *Sub) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Sub.mu is released first: the engine's lock is always taken before it.
	s.e.UnsubscribeCommits(s)
	close(s.done)
	// No publisher reaches the ring once unsubscribed: drain whatever was
	// buffered and drop the references. A concurrent Next may win some of
	// these records; its caller releases those.
	for {
		select {
		case cd, ok := <-s.ring:
			if !ok {
				return
			}
			cd.Release()
		default:
			return
		}
	}
}
