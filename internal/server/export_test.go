package server

import (
	"testing"
	"time"
)

// SetWatchWriteTimeout shortens the per-frame write deadline of watch and
// read streams for one test and restores it when the test ends.
func SetWatchWriteTimeout(t *testing.T, d time.Duration) {
	old := watchWriteTimeout
	watchWriteTimeout = d
	t.Cleanup(func() { watchWriteTimeout = old })
}

// OpenReaders counts the open read streams the way /v1/stats and /metrics
// do.
func OpenReaders(s *Server) int { return s.readers.count() }

// MaxReaders is the cap on open read streams.
const MaxReaders = maxReaders
