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
