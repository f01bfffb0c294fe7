package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// viewOf returns the rows view node n holds: its relation's, or, for an
// index-backed view, a relation MustAdd of every key of its index with the
// key's bucket sum (relation.Index.Sums) fills, in n's column order.
func viewOf(e *Engine, n *viewtree.Node) *relation.Relation {
	ix := e.sumIx[n.ID]
	if ix == nil {
		return e.rels[n.ID]
	}
	v := relation.New(n.Name, n.Schema)
	toView := tuple.MustProjection(ix.Key(), n.Schema)
	ix.Sums(nil, false, func(k tuple.Tuple, m int64) { v.MustAdd(toView.Apply(k), m) })
	return v
}

// Snapshot captures into a new handle, as a reader that holds one does.
func (e *Engine) Snapshot() *Snapshot {
	s := new(Snapshot)
	e.SnapshotInto(s)
	return s
}

// traceViewWrites counts, until the test ends, the rows every propagation
// edge writes, by the name of the view relation written: the split of
// Stats.ViewDeltas that viewWriteTable prints.
func traceViewWrites(t *testing.T) map[string]int64 {
	writes := map[string]int64{}
	traceEdge = func(edge *pathEdge, rows int64) {
		if edge.view != nil { // an index-backed view has none, and writes nothing
			writes[edge.view.Name()] += rows
		}
	}
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

// helpersFrom lowers, until the test ends, the rows a join's fill needs for a
// helper goroutine to rows, and counts the fills that ran on helpers.
func helpersFrom(t *testing.T, rows int) *int {
	old, helped := minHelperRows, new(int)
	minHelperRows = rows
	traceHelpers = func(p int) {
		if p > 1 {
			*helped++
		}
	}
	t.Cleanup(func() { minHelperRows, traceHelpers = old, nil })
	return helped
}

// countJoinFills counts, until the test ends, the joins' fills that run: a
// major rebalance's recomputation of every view runs one per join view.
func countJoinFills(t *testing.T) *int {
	fills := new(int)
	traceHelpers = func(int) { *fills++ }
	t.Cleanup(func() { traceHelpers = nil })
	return fills
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
