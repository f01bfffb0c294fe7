package server

import (
	"testing"
	"time"
)

// SetReaderTTL shortens the idle lifetime of pagination cursors for one
// test and restores it when the test ends. Test-only: the service runs on
// the fixed 30 s.
func SetReaderTTL(t *testing.T, d time.Duration) {
	old := readerTTL
	readerTTL = d
	t.Cleanup(func() { readerTTL = old })
}

// SetWatchWriteTimeout shortens the per-frame write deadline of watch
// streams for one test and restores it when the test ends.
func SetWatchWriteTimeout(t *testing.T, d time.Duration) {
	old := watchWriteTimeout
	watchWriteTimeout = d
	t.Cleanup(func() { watchWriteTimeout = old })
}

// HoldReader locks the open reader id's mutex, as a page pull in progress
// does, and returns the unlock.
func HoldReader(t *testing.T, s *Server, id uint64) (unlock func()) {
	s.readers.mu.Lock()
	r := s.readers.m[id]
	s.readers.mu.Unlock()
	if r == nil {
		t.Fatalf("no open reader %d", id)
	}
	r.mu.Lock()
	return r.mu.Unlock
}

// ReaderOpen looks a reader up the way a page request with its cursor does.
func ReaderOpen(s *Server, id uint64) bool { return s.readers.get(id) != nil }

// OpenReaders counts the open readers the way /v1/stats and /metrics do.
func OpenReaders(s *Server) int { return s.readers.open() }
