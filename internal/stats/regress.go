package stats

import (
	"errors"
	"math"
)

// ErrDegenerate is returned when a regression input has no variance in x
// or too few points to fit.
var ErrDegenerate = errors.New("stats: degenerate regression input")

// LinearFit holds the result of an ordinary-least-squares fit y = A + B·x.
// The paper fits its transit traffic model ATT = a + b·BTT (Eq. 3) this
// way, reporting b in [0.3, 0.8] across road segments.
type LinearFit struct {
	A  float64 // intercept
	B  float64 // slope
	R2 float64 // coefficient of determination
	N  int     // number of points
}

// Linreg fits y = A + B·x by ordinary least squares.
func Linreg(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, errors.New("stats: mismatched regression inputs")
	}
	n := len(x)
	if n < 2 {
		return LinearFit{}, ErrDegenerate
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, ErrDegenerate
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return LinearFit{A: a, B: b, R2: r2, N: n}, nil
}

// Clamp bounds x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, x))
}
