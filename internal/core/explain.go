package core

import (
	"fmt"
	"sort"
	"strings"

	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/viewtree"
)

// Explain returns a human-readable description of the engine's evaluation
// strategy: the query's classification and widths, the cost guarantees at
// the engine's ε, and the constructed view trees, partitions, and
// indicators. A view that repeats an earlier one prints as "=Name" and is
// spelled out under "shared"; "∃" marks a view read for its support only.
// The views line counts apart the nodes read off an index their leaf keeps
// (index-backed). Once preprocessed, it lists each view class's rows and the
// bytes its relation holds (relation.Relation.Footprint), or the index an
// index-backed class is read off, which holds no byte of its own.
func (e *Engine) Explain() string {
	var b strings.Builder
	c := query.Classify(e.orig)
	fmt.Fprintf(&b, "query: %s\n", e.orig)
	fmt.Fprintf(&b, "class: hierarchical=%v q-hierarchical=%v free-connex=%v w=%d δ=%d\n",
		c.Hierarchical, c.QHierarchical, c.FreeConnex, c.StaticWidth, c.DynamicWidth)
	w, d := float64(c.StaticWidth), float64(c.DynamicWidth)
	eps := e.opts.Epsilon
	var parts []string
	for _, pr := range e.partitions {
		parts = append(parts, pr.p.Light().Name())
	}
	// A forest with no partition and no indicator enumerates at constant
	// delay and takes constant-time updates (Berkholz, Keppeler and
	// Schweikardt, PODS 2017), whatever the class formula says at ε.
	delay, update := fmt.Sprintf("O(N^%.2f)", 1-eps), fmt.Sprintf("O(N^%.2f)", d*eps)
	if len(parts) == 0 && len(e.forest.Indicators) == 0 {
		delay, update = "O(1)", "O(1)"
	}
	fmt.Fprintf(&b, "mode: %v, ε = %v\n", e.opts.Mode, eps)
	fmt.Fprintf(&b, "guarantees: preprocessing O(N^%.2f), delay %s", 1+(w-1)*eps, delay)
	if e.opts.Mode == viewtree.Dynamic {
		fmt.Fprintf(&b, ", amortized update %s", update)
	}
	b.WriteString("\n")
	if e.preprocessed {
		fmt.Fprintf(&b, "state: N = %d, M = %d, θ = M^ε = %.1f\n", e.n, e.m, e.Theta())
	}

	for ci, comp := range e.forest.Components {
		fmt.Fprintf(&b, "component %d (%d view tree(s)):\n", ci+1, len(comp.Trees))
		for _, t := range comp.Trees {
			fmt.Fprintf(&b, "  %s\n", viewtree.Render(t))
		}
	}
	if len(e.forest.Indicators) > 0 {
		fmt.Fprintf(&b, "heavy/light indicators:\n")
		for _, ind := range e.forest.Indicators {
			fmt.Fprintf(&b, "  ∃H on %s over %s\n", ind.Keys, strings.Join(ind.Rels, ", "))
			fmt.Fprintf(&b, "    All: %s\n    L:   %s\n", viewtree.Render(ind.All), viewtree.Render(ind.L))
		}
	}
	// What the "=Name" above stand for: the views several nodes share.
	members := make([]int, len(e.info))
	backed, backedClasses := 0, 0
	for id := range e.info {
		if n := e.info[id].node; n.Kind == viewtree.View {
			members[n.Canon.ID]++
			if e.info[id].sumKey != nil {
				backed++
				if n.Canon == n {
					backedClasses++
				}
			}
		}
	}
	if st := e.forest.Summarize(); st.DistinctViews < st.Views || backed > 0 {
		fmt.Fprintf(&b, "views: %d nodes, %d relations", st.Views, st.DistinctViews-backedClasses)
		if backed > 0 {
			fmt.Fprintf(&b, ", %d nodes read off an index", backed)
		}
		if st.DistinctViews < st.Views {
			b.WriteString("; shared:")
		}
		b.WriteString("\n")
		for id, k := range members {
			if k > 1 {
				fmt.Fprintf(&b, "  %s = %s  (%d nodes)\n", e.info[id].node.Name, viewtree.Render(e.info[id].node), k)
			}
		}
	}
	if e.preprocessed {
		b.WriteString("view storage:\n")
		for id, k := range members {
			switch r, key := e.rels[id], e.info[id].sumKey; {
			case k == 0:
			case key != nil:
				fmt.Fprintf(&b, "  %s: %s's index on %s\n", e.info[id].node.Name, r.Name(), key)
			default:
				fmt.Fprintf(&b, "  %s: %d rows, %d bytes\n", e.info[id].node.Name, r.Size(), r.Footprint())
			}
		}
	}
	if len(parts) > 0 {
		sort.Strings(parts)
		fmt.Fprintf(&b, "light parts: %s\n", strings.Join(parts, ", "))
	}
	return b.String()
}

// Footprint returns the bytes every relation the engine keeps holds — base
// relations, light parts, views, indicators and push-down aggregates, a
// shared one once (relation.Relation.Footprint) — and the tuples they store:
// the space side of the trade-off, as exact counts for a given history.
func (e *Engine) Footprint() (bytes, tuples int) {
	seen := map[*relation.Relation]bool{}
	count := func(r *relation.Relation) {
		if !seen[r] {
			seen[r] = true
			bytes += r.Footprint()
			tuples += r.Size()
		}
	}
	for _, r := range e.rels {
		count(r)
	}
	for _, fs := range e.fills {
		for _, f := range fs {
			count(f.dst)
		}
	}
	return bytes, tuples
}
