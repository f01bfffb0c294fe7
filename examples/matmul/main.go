// Matrix multiplication as a hierarchical query (Example 28).
//
// An n×n matrix product is the query Q(A, C) = R(A, B), S(B, C) over
// relations of size N = n² with multiplicities as matrix entries: the
// multiplicity of (a, c) in the result is Σ_b R(a,b)·S(b,c). Example 28
// works through the ε trade-off on exactly this instance: ε = 0 gives
// linear preprocessing and O(N^(1/2)) = O(n) delay per output entry by
// summing over the n heavy B-values at enumeration time; ε = 1/2 and above
// materialize the product during preprocessing (O(N^(3/2)) = O(n³)) and
// enumerate it with constant delay.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"ivmeps"
)

const n = 40 // matrix dimension; N = 2n² database tuples

func main() {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng)
	b := randomMatrix(rng)
	want := multiply(a, b)

	for _, eps := range []float64{0, 0.5, 1} {
		e, err := ivmeps.New(ivmeps.MustParseQuery("Q(A, C) = R(A, B), S(B, C)"),
			ivmeps.Options{Epsilon: eps, Static: true})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a[i][j] != 0 {
					if err := e.LoadWeighted("R", []int64{int64(i), int64(j)}, a[i][j]); err != nil {
						log.Fatal(err)
					}
				}
				if b[i][j] != 0 {
					if err := e.LoadWeighted("S", []int64{int64(i), int64(j)}, b[i][j]); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
		start := time.Now()
		if err := e.Build(); err != nil {
			log.Fatal(err)
		}
		prep := time.Since(start)

		// Read the product back through enumeration and verify it.
		start = time.Now()
		got := make([][]int64, n)
		for i := range got {
			got[i] = make([]int64, n)
		}
		entries := 0
		for row, mult := range e.All() {
			got[row[0]][row[1]] = mult
			entries++
		}
		enum := time.Since(start)

		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got[i][j] != want[i][j] {
					log.Fatalf("eps=%v: product mismatch at (%d,%d): %d != %d", eps, i, j, got[i][j], want[i][j])
				}
			}
		}
		fmt.Printf("eps=%.1f  N=%d  preprocessing=%-10v enumeration(%d entries)=%-10v product verified\n",
			eps, e.N(), prep.Round(time.Microsecond), entries, enum.Round(time.Microsecond))
	}
	fmt.Println("\nε trades preprocessing for delay on the same query — Example 28's curve",
		"O(N^(1+ε)) preprocessing / O(N^(1−ε)) delay.")
}

func randomMatrix(rng *rand.Rand) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			if rng.Intn(3) > 0 { // ~2/3 dense
				m[i][j] = rng.Int63n(5) + 1
			}
		}
	}
	return m
}

func multiply(a, b [][]int64) [][]int64 {
	out := make([][]int64, n)
	for i := range out {
		out[i] = make([]int64, n)
		for k := 0; k < n; k++ {
			if a[i][k] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}
