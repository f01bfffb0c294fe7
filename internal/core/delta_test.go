package core

import (
	"math/rand"
	"testing"

	"ivmeps/internal/tuple"
)

// TestDeltaAggregatesThroughIndex: a pooled delta aggregates by tuple the
// same whether it scans (≤ 16 rows) or goes through its key set, whose ids
// must stay the rows' positions — across resets, arities and a switch to the
// index part way through a delta. Rows keep first-add order.
func TestDeltaAggregatesThroughIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var d delta
	for round := 0; round < 300; round++ {
		d.reset()
		arity := rng.Intn(3)
		n := rng.Intn(60)
		if rng.Intn(10) == 0 {
			n = 500 + rng.Intn(2000)
		}
		domain := int64(1 + rng.Intn(2*n+1))
		model := map[string]int{} // tuple → row position
		var order []tuple.Tuple
		var sums []int64
		for i := 0; i < n; i++ {
			tu := make(tuple.Tuple, arity)
			for j := range tu {
				tu[j] = rng.Int63n(domain)
			}
			m := rng.Int63n(7) - 3
			d.add(tu, m)
			if p, ok := model[tu.String()]; ok {
				sums[p] += m
				continue
			}
			model[tu.String()] = len(order)
			order = append(order, tu)
			sums = append(sums, m)
		}
		if len(d.rows) != len(order) {
			t.Fatalf("round %d: %d rows, the model has %d", round, len(d.rows), len(order))
		}
		for i, w := range d.rows {
			if !w.t.Equal(order[i]) || w.m != sums[i] {
				t.Fatalf("round %d: row %d is %v x%d, the model has %v x%d", round, i, w.t, w.m, order[i], sums[i])
			}
		}
	}
}
