// Package benchutil provides the measurement harness used by the benchmark
// suite and cmd/hiqbench: wall-clock timing, per-tuple enumeration delay
// statistics, least-squares slope fitting on log–log scales (to compare
// measured scaling exponents against the paper's predictions), and plain
// markdown table rendering.
package benchutil

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"ivmeps/internal/baseline"
	"ivmeps/internal/tuple"
)

// Time runs fn and returns its wall-clock duration.
func Time(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// DelayStats summarizes per-tuple enumeration delays.
type DelayStats struct {
	Tuples int
	First  time.Duration // time to the first tuple (includes iterator open)
	Max    time.Duration
	P50    time.Duration
	P99    time.Duration
	Mean   time.Duration
	Total  time.Duration
}

// MeasureDelay enumerates up to limit tuples from sys and records the gap
// before each tuple. limit ≤ 0 enumerates everything.
func MeasureDelay(sys baseline.System, limit int) DelayStats {
	var gaps []time.Duration
	last := time.Now()
	first := time.Duration(0)
	n := 0
	sys.Enumerate(func(t tuple.Tuple, m int64) bool {
		now := time.Now()
		gap := now.Sub(last)
		last = now
		if n == 0 {
			first = gap
		}
		gaps = append(gaps, gap)
		n++
		return limit <= 0 || n < limit
	})
	return summarizeGaps(gaps, first)
}

func summarizeGaps(gaps []time.Duration, first time.Duration) DelayStats {
	st := DelayStats{Tuples: len(gaps), First: first}
	if len(gaps) == 0 {
		return st
	}
	sorted := append([]time.Duration(nil), gaps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, g := range gaps {
		total += g
	}
	st.Total = total
	st.Max = sorted[len(sorted)-1]
	st.P50 = sorted[len(sorted)/2]
	st.P99 = sorted[(len(sorted)*99)/100]
	st.Mean = total / time.Duration(len(gaps))
	return st
}

// FitSlope fits y = c·x^slope by least squares on (log x, log y) and
// returns the slope. Points with non-positive coordinates are skipped.
// It returns NaN with fewer than two usable points.
func FitSlope(xs []float64, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if n < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// Table accumulates rows and renders a markdown table; hiqbench -json
// encodes it as is.
type Table struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// Add appends a row; values are rendered with %v, durations compactly, and
// floats with three significant decimals.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = compactDuration(v)
		case float64:
			if v == math.Trunc(v) && math.Abs(v) < 1e6 {
				row[i] = fmt.Sprintf("%.0f", v)
			} else {
				row[i] = fmt.Sprintf("%.3g", v)
			}
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func compactDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

// String renders the table as github-flavored markdown.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := range width {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", width[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(width))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
