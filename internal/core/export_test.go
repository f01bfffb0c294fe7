package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// Snapshot captures into a new handle, as a reader that holds one does.
func (e *Engine) Snapshot() *Snapshot {
	s := new(Snapshot)
	e.SnapshotInto(s)
	return s
}

// traceViewWrites counts, until the test ends, the rows every propagation
// edge writes, by the name of the view relation written: the split of
// Stats.DeltasApplied that viewWriteTable prints.
func traceViewWrites(t *testing.T) map[string]int64 {
	writes := map[string]int64{}
	traceEdge = func(edge *pathEdge, rows int64) { writes[edge.view.Name()] += rows }
	t.Cleanup(func() { traceEdge = nil })
	return writes
}

// rowByRowFor keeps every propagation edge of row on the row-by-row path
// until the test ends, whatever the size of its delta, and counts the edges
// of every other engine that take the sealed path (sealEdge).
func rowByRowFor(t *testing.T, row *Engine) *int {
	sealed := new(int)
	rowByRow = func(e *Engine) bool {
		if e == row {
			return true
		}
		*sealed++
		return false
	}
	t.Cleanup(func() { rowByRow = nil })
	return sealed
}

// viewWriteTable renders traced writes, most-written view first.
func viewWriteTable(writes map[string]int64) string {
	names := make([]string, 0, len(writes))
	for name := range writes {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if writes[names[i]] != writes[names[j]] {
			return writes[names[i]] > writes[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%12d  %s\n", writes[name], name)
	}
	return b.String()
}
