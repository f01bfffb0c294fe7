// Quickstart: maintain a two-way join under single-tuple updates and
// enumerate its distinct results with multiplicities.
//
// The query Q(A, C) = R(A, B), S(B, C) is the paper's running example
// (Example 28): hierarchical with static width w = 2 and dynamic width
// δ = 1, so an engine at ε gets O(N^(1+ε)) preprocessing, O(N^ε) amortized
// updates, and O(N^(1−ε)) enumeration delay.
package main

import (
	"fmt"
	"log"

	"ivmeps"
)

func main() {
	q, err := ivmeps.ParseQuery("Q(A, C) = R(A, B), S(B, C)")
	if err != nil {
		log.Fatal(err)
	}
	c := q.Classify()
	fmt.Printf("query: %s\n", q)
	fmt.Printf("class: hierarchical=%v free-connex=%v q-hierarchical=%v w=%d δ=%d\n\n",
		c.Hierarchical, c.FreeConnex, c.QHierarchical, c.StaticWidth, c.DynamicWidth)

	// ε = 1/2 is the weakly Pareto-optimal point for δ1-hierarchical
	// queries: both updates and delay cost O(N^(1/2)).
	e, err := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		log.Fatal(err)
	}

	// Load the initial database and run the preprocessing stage.
	if err := e.Load("R", []int64{1, 10}, []int64{2, 10}, []int64{3, 20}); err != nil {
		log.Fatal(err)
	}
	if err := e.Load("S", []int64{10, 100}, []int64{20, 100}, []int64{20, 200}); err != nil {
		log.Fatal(err)
	}
	if err := e.Build(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("initial result:")
	printResult(e)

	// Single-tuple updates are maintained incrementally.
	fmt.Println("\nafter INSERT R(4, 20) and DELETE R(1, 10):")
	if err := e.Insert("R", []int64{4, 20}); err != nil {
		log.Fatal(err)
	}
	if err := e.Delete("R", []int64{1, 10}); err != nil {
		log.Fatal(err)
	}
	printResult(e)

	st := e.Stats()
	fmt.Printf("\nN=%d, updates=%d, view deltas applied=%d\n", e.N(), st.Updates, st.ViewDeltas)
}

func printResult(e *ivmeps.Engine) {
	for row, mult := range e.All() {
		fmt.Printf("  Q(%d, %d) ×%d\n", row[0], row[1], mult)
	}
}
