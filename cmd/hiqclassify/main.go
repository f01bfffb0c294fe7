// Command hiqclassify classifies conjunctive queries into the paper's
// taxonomy (Figure 2) and reports their width measures and the evaluation
// guarantees the engine provides for them.
//
// Usage:
//
//	hiqclassify 'Q(A, C) = R(A, B), S(B, C)'
//	echo 'Q(A) = R(A, B), S(B)' | hiqclassify
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"ivmeps/internal/query"
	"ivmeps/internal/viewtree"
	"ivmeps/internal/vorder"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			classify(line)
		}
		return
	}
	for _, a := range args {
		classify(a)
	}
}

func classify(s string) {
	q, err := query.Parse(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hiqclassify: %v\n", err)
		os.Exit(1)
	}
	c := query.Classify(q)
	fmt.Printf("query:          %s\n", q)
	fmt.Printf("hierarchical:   %v\n", c.Hierarchical)
	fmt.Printf("α-acyclic:      %v\n", c.AlphaAcyclic)
	fmt.Printf("free-connex:    %v\n", c.FreeConnex)
	if !c.Hierarchical {
		fmt.Printf("\nNot hierarchical: outside the scope of the paper's algorithms;\nthe engine will reject it.\n")
		return
	}
	fmt.Printf("q-hierarchical: %v (= δ0-hierarchical, Prop 6)\n", c.QHierarchical)
	fmt.Printf("static width w: %d\n", c.StaticWidth)
	fmt.Printf("dynamic width δ: %d (δ%d-hierarchical)\n", c.DynamicWidth, c.DynamicWidth)
	if ord, err := vorder.Canonical(q); err == nil {
		ord.SortChildren()
		fmt.Printf("canonical variable order: %s\n", ord)
		ft := ord.FreeTop()
		ft.SortChildren()
		fmt.Printf("free-top variable order:  %s\n", ft)
	}
	if f, err := viewtree.Build(q, viewtree.Dynamic); err == nil {
		st := f.Summarize()
		fmt.Printf("view trees: %d, views: %d (%d distinct)\n", st.Trees+2*st.Indicators, st.Views, st.DistinctViews)
	}
	w := float64(c.StaticWidth)
	d := float64(c.DynamicWidth)
	fmt.Printf("\nguarantees at ε ∈ [0,1] for database size N (Theorems 2 and 4):\n")
	fmt.Printf("  preprocessing    O(N^(1+%.0fε))\n", w-1)
	fmt.Printf("  enumeration delay O(N^(1−ε))\n")
	fmt.Printf("  amortized update O(N^(%.0fε))\n", d)
	switch {
	case c.QHierarchical:
		fmt.Printf("q-hierarchical: linear preprocessing, O(1) update and delay at ε=1.\n")
	case c.FreeConnex:
		fmt.Printf("free-connex: linear preprocessing and O(1) delay at ε=1; updates O(N^ε).\n")
	case c.DynamicWidth == 1:
		fmt.Printf("δ1-hierarchical: ε=1/2 is weakly Pareto worst-case optimal (Prop 10, OMv).\n")
	}
	fmt.Println()
}
