package stats

import (
	"fmt"
	"sort"
	"strings"
)

// ECDF is an empirical cumulative distribution function over a sample.
// It is the workhorse behind every CDF figure in the paper (Figs. 1, 2(b),
// 2(c), 11). The zero value is an empty distribution; Add observations and
// call Sort (or any query method, which sorts lazily) before reading.
type ECDF struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (e *ECDF) Add(x float64) {
	e.xs = append(e.xs, x)
	e.sorted = false
}

// N returns the number of observations.
func (e *ECDF) N() int { return len(e.xs) }

// Sort orders the underlying sample; queries call it automatically.
func (e *ECDF) Sort() {
	if !e.sorted {
		sort.Float64s(e.xs)
		e.sorted = true
	}
}

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	e.Sort()
	i := sort.SearchFloat64s(e.xs, x)
	// Advance past ties so the CDF is right-continuous and includes x.
	for i < len(e.xs) && e.xs[i] <= x {
		i++
	}
	return float64(i) / float64(len(e.xs))
}

// Quantile returns the q-th quantile (0 <= q <= 1) using the nearest-rank
// method. It panics on an empty distribution.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.xs) == 0 {
		panic("stats: Quantile of empty ECDF")
	}
	e.Sort()
	if q <= 0 {
		return e.xs[0]
	}
	if q >= 1 {
		return e.xs[len(e.xs)-1]
	}
	i := int(q * float64(len(e.xs)))
	if i >= len(e.xs) {
		i = len(e.xs) - 1
	}
	return e.xs[i]
}

// Median returns the 0.5 quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Table renders the CDF at the given abscissae as an aligned two-column
// text table with the given value label, for the experiment reports.
func (e *ECDF) Table(label string, xs []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%14s  %8s\n", label, "CDF")
	for _, x := range xs {
		fmt.Fprintf(&b, "%14.2f  %8.4f\n", x, e.At(x))
	}
	return b.String()
}

// Percentile is shorthand for Quantile(p/100).
func (e *ECDF) Percentile(p float64) float64 { return e.Quantile(p / 100) }
