package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// traceViewWrites counts, until the test ends, the rows every propagation
// edge writes, by the name of the view relation written: the split of
// Stats.DeltasApplied that viewWriteTable prints.
func traceViewWrites(t *testing.T) map[string]int64 {
	writes := map[string]int64{}
	traceEdge = func(edge *pathEdge, rows int64) { writes[edge.view.Name()] += rows }
	t.Cleanup(func() { traceEdge = nil })
	return writes
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
