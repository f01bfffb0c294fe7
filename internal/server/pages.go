package server

import (
	"fmt"
	"iter"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Pagination. The first page of a read (no cursor) pins an engine snapshot
// and registers a reader; every following page pulls from that reader, so
// all pages of one read observe one committed epoch no matter how many
// commits land in between — the writer is never blocked, it just
// copy-on-writes around the pinned generation. The cursor token encodes
// the reader id and the rows served so far; presenting a stale offset (a
// retried or replayed page) or a cursor whose reader has been released is
// answered with CodeGone, and the client restarts the read. Readers are
// released on the last page, on idle expiry (readerTTL), or by LRU
// eviction when maxReaders is exceeded — an open snapshot makes
// the writer copy touched relations once per generation, so abandoned
// cursors must not pin generations forever.

// pageReader is one open paginated read.
type pageReader struct {
	id    uint64
	view  string // "" means the query result
	epoch uint64
	count int

	// last is the reader's last use in Unix nanoseconds, stamped by
	// handleRows at both ends of a page and read by the table's sweep
	// without mu: a page in progress must not make the sweep wait.
	last atomic.Int64

	mu     sync.Mutex
	next   func() ([]int64, int64, bool) // nil after release
	stop   func()
	served int
}

// release drops the reader's snapshot pin. Callers hold r.mu or have
// exclusive ownership.
func (r *pageReader) release() {
	if r.stop != nil {
		r.stop()
		r.stop = nil
	}
	r.next = nil
}

// readerTable is the registry of open paginated reads.
type readerTable struct {
	mu  sync.Mutex
	m   map[uint64]*pageReader
	seq uint64
}

// open reports the number of live cursors (for /v1/stats and /metrics).
func (t *readerTable) open() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// sweepLocked releases expired readers and, if the table is still at
// capacity, the least-recently-used one. It locks a reader only to release
// it; the stamps it compares are atomic.
func (t *readerTable) sweepLocked(now time.Time) {
	evict := func(r *pageReader) {
		r.mu.Lock()
		r.release()
		r.mu.Unlock()
		delete(t.m, r.id)
	}
	expired := now.Add(-readerTTL).UnixNano()
	for {
		var oldest *pageReader
		for _, r := range t.m {
			if r.last.Load() < expired {
				evict(r)
			} else if oldest == nil || r.last.Load() < oldest.last.Load() {
				oldest = r
			}
		}
		if len(t.m) < maxReaders {
			return
		}
		evict(oldest)
	}
}

// add registers a fresh reader, evicting as needed.
func (t *readerTable) add(r *pageReader) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked(time.Now())
	t.seq++
	r.id = t.seq
	r.last.Store(time.Now().UnixNano())
	t.m[r.id] = r
}

// get looks a reader up by id; nil means expired or never existed.
func (t *readerTable) get(id uint64) *pageReader {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked(time.Now())
	return t.m[id]
}

// remove drops a drained reader.
func (t *readerTable) remove(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, id)
}

// cursorToken encodes a reader position as the opaque page cursor.
func cursorToken(id uint64, served int) string { return fmt.Sprintf("r%d.%d", id, served) }

// parseCursor inverts cursorToken.
func parseCursor(s string) (id uint64, served int, err error) {
	rest, ok := strings.CutPrefix(s, "r")
	if !ok {
		return 0, 0, fmt.Errorf("malformed cursor %q", s)
	}
	ids, offs, ok := strings.Cut(rest, ".")
	if !ok {
		return 0, 0, fmt.Errorf("malformed cursor %q", s)
	}
	id, err = strconv.ParseUint(ids, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("malformed cursor %q", s)
	}
	served, err = strconv.Atoi(offs)
	if err != nil || served < 0 {
		return 0, 0, fmt.Errorf("malformed cursor %q", s)
	}
	return id, served, nil
}

// newResultReader pins a snapshot and sets up pull-based enumeration of
// the query result. The total count costs one extra enumeration pass,
// taken up front so every page can carry it.
func (s *Server) newResultReader() (*pageReader, error) {
	snap, err := s.eng.Snapshot()
	if err != nil {
		return nil, err
	}
	next, stop := iter.Pull2(snap.All())
	r := &pageReader{
		epoch: snap.Epoch(),
		count: snap.Count(),
		next:  next,
		stop: func() {
			stop()
			snap.Close()
		},
	}
	return r, nil
}

// newViewReader materializes one root view from a snapshot (ViewRows
// copies, so the snapshot pin is released immediately) and serves pages by
// slicing.
func (s *Server) newViewReader(view string) (*pageReader, error) {
	snap, err := s.eng.Snapshot()
	if err != nil {
		return nil, err
	}
	rows, mults, err := snap.ViewRows(view)
	epoch := snap.Epoch()
	snap.Close()
	if err != nil {
		return nil, &WireError{Code: CodeUnknownView, Message: err.Error()}
	}
	i := 0
	r := &pageReader{
		view:  view,
		epoch: epoch,
		count: len(rows),
		next: func() ([]int64, int64, bool) {
			if i >= len(rows) {
				return nil, 0, false
			}
			row, m := rows[i], mults[i]
			i++
			return row, m, true
		},
		stop: func() {},
	}
	return r, nil
}

// handleRows serves one page of a paginated read; view "" is the query
// result.
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request, view string) {
	limit := pageSize
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			s.fail(w, epRows, &WireError{Code: CodeBadRequest, Message: fmt.Sprintf("bad limit %q", ls)})
			return
		}
		limit = min(n, maxPageSize)
	}

	var rd *pageReader
	if cur := r.URL.Query().Get("cursor"); cur != "" {
		id, served, err := parseCursor(cur)
		if err != nil {
			s.fail(w, epRows, &WireError{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		rd = s.readers.get(id)
		if rd == nil || rd.view != view {
			s.fail(w, epRows, &WireError{Code: CodeGone, Message: "cursor expired or unknown; restart the read"})
			return
		}
		rd.mu.Lock()
		if rd.next == nil || rd.served != served {
			rd.mu.Unlock()
			s.fail(w, epRows, &WireError{Code: CodeGone, Message: "cursor expired or out of sequence; restart the read"})
			return
		}
	} else {
		var err error
		if view == "" {
			rd, err = s.newResultReader()
		} else {
			rd, err = s.newViewReader(view)
		}
		if err != nil {
			s.fail(w, epRows, err)
			return
		}
		s.readers.add(rd)
		rd.mu.Lock()
	}

	// rd.mu is held; pull one page. Yielded rows may alias engine-reused
	// buffers, so each is copied before it outlives the pull — into one
	// backing array, sized at the first row for the n rows this page can
	// still hold, whose sub-slices are the page's rows.
	rd.last.Store(time.Now().UnixNano())
	n := min(limit, rd.count-rd.served)
	var vals []int64
	page := RowsPage{View: view, Epoch: rd.epoch, Count: rd.count, Rows: make(RowBlock, 0, n), Mults: make([]int64, 0, n)}
	done := false
	for len(page.Rows) < limit {
		row, mult, ok := rd.next()
		if !ok {
			done = true
			break
		}
		if vals == nil {
			vals = make([]int64, 0, n*len(row))
		}
		vals = append(vals, row...)
		page.Rows = append(page.Rows, vals[len(vals)-len(row):len(vals):len(vals)])
		page.Mults = append(page.Mults, mult)
	}
	rd.served += len(page.Rows)
	if done {
		rd.release()
	} else {
		page.Next = cursorToken(rd.id, rd.served)
	}
	rd.last.Store(time.Now().UnixNano())
	id := rd.id
	rd.mu.Unlock()
	if done {
		s.readers.remove(id)
	}

	w.Header().Set(HeaderEpoch, strconv.FormatUint(page.Epoch, 10))
	w.Header().Set(HeaderCount, strconv.Itoa(page.Count))
	if page.Next != "" {
		w.Header().Set(HeaderNext, page.Next)
	}
	s.reply(w, epRows, http.StatusOK, &page)
}
