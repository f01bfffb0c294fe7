// Retail reporting: a free-connex query with constant-delay enumeration
// after linear preprocessing (Example 18).
//
// The query
//
//	Q(Cust, Disc, Region) = Lines(Cust, Order, Item),
//	                        Discounts(Cust, Order, Disc),
//	                        Location(Cust, Region)
//
// is Example 18's Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E): free-connex
// (w = 1), so preprocessing is linear at EVERY ε and results stream with
// constant delay from the view tree of Figure 9 — no matter how large the
// underlying order history is. It is δ1- (not δ0-) hierarchical: Order is a
// bound join variable dominating the free Disc, so dynamic maintenance
// partitions orders by line count.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"ivmeps"
)

func main() {
	const (
		customers = 5000
		orders    = 20000
		lines     = 60000
	)
	rng := rand.New(rand.NewSource(11))

	q := ivmeps.MustParseQuery(
		"Q(Cust, Disc, Region) = Lines(Cust, Order, Item), Discounts(Cust, Order, Disc), Location(Cust, Region)")
	cls := q.Classify()
	fmt.Printf("query is free-connex=%v with w=%d, δ=%d → linear build, constant-delay reporting\n\n",
		cls.FreeConnex, cls.StaticWidth, cls.DynamicWidth)

	e, err := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		log.Fatal(err)
	}

	// Orders belong to customers; lines and discounts belong to orders.
	orderCust := make([]int64, orders)
	for o := range orderCust {
		orderCust[o] = rng.Int63n(customers)
	}
	for i := 0; i < lines; i++ {
		o := rng.Int63n(orders)
		if err := e.Load("Lines", []int64{orderCust[o], o, rng.Int63n(500)}); err != nil {
			log.Fatal(err)
		}
	}
	for o := int64(0); o < orders; o++ {
		if rng.Intn(3) == 0 { // a third of orders carry a discount code
			if err := e.Load("Discounts", []int64{orderCust[o], o, rng.Int63n(20)}); err != nil {
				log.Fatal(err)
			}
		}
	}
	for c := int64(0); c < customers; c++ {
		if err := e.Load("Location", []int64{c, c % 7}); err != nil {
			log.Fatal(err)
		}
	}

	start := time.Now()
	if err := e.Build(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built over N=%d tuples in %v\n", e.N(), time.Since(start).Round(time.Millisecond))

	// Stream the report with per-tuple delay measurement.
	start = time.Now()
	var count int
	var maxGap time.Duration
	last := time.Now()
	for range e.All() {
		now := time.Now()
		if gap := now.Sub(last); gap > maxGap && count > 0 {
			maxGap = gap
		}
		last = now
		count++
	}
	fmt.Printf("report: %d distinct (customer, discount, region) rows in %v; worst per-row delay %v\n",
		count, time.Since(start).Round(time.Millisecond), maxGap)

	// Live maintenance: new lines and discounts arrive.
	start = time.Now()
	const updates = 5000
	for i := 0; i < updates; i++ {
		o := rng.Int63n(orders)
		if i%3 == 0 {
			if err := e.Apply("Discounts", []int64{orderCust[o], o, rng.Int63n(20)}, 1); err != nil {
				log.Fatal(err)
			}
		} else {
			if err := e.Apply("Lines", []int64{orderCust[o], o, rng.Int63n(500)}, 1); err != nil {
				log.Fatal(err)
			}
		}
	}
	el := time.Since(start)
	fmt.Printf("applied %d live updates in %v (%.1fµs each amortized)\n",
		updates, el.Round(time.Millisecond), float64(el.Microseconds())/updates)
	fmt.Printf("rows now: %d\n", e.Count())
}
