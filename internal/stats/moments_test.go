package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Var() != 0 || a.StdDev() != 0 {
		t.Error("zero-value accumulator should report zeros")
	}
}

func TestAccumulatorKnown(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if m := a.Mean(); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if v := a.Var(); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("var = %v, want %v", v, 32.0/7)
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Var() != 0 {
		t.Error("variance of single sample must be 0")
	}
}

func TestAccumulatorMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var a Accumulator
		var sum float64
		for _, x := range xs {
			a.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naive := ss / float64(len(xs)-1)
		scale := math.Max(1, naive)
		return math.Abs(a.Var()-naive)/scale < 1e-6 &&
			math.Abs(a.Mean()-mean) < 1e-6*math.Max(1, math.Abs(mean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLinregKnownLine(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	fit, err := Linreg(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.A-1) > 1e-12 || math.Abs(fit.B-2) > 1e-12 {
		t.Errorf("fit = %+v, want A=1 B=2", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinregNoisy(t *testing.T) {
	r := NewRNG(77)
	var x, y []float64
	for i := 0; i < 5000; i++ {
		xi := r.Range(0, 100)
		x = append(x, xi)
		y = append(y, 4+0.5*xi+r.Norm(0, 2))
	}
	fit, err := Linreg(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.B-0.5) > 0.01 {
		t.Errorf("slope = %v, want ~0.5", fit.B)
	}
	if math.Abs(fit.A-4) > 0.5 {
		t.Errorf("intercept = %v, want ~4", fit.A)
	}
}

func TestLinregErrors(t *testing.T) {
	if _, err := Linreg([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := Linreg([]float64{1}, []float64{1}); err == nil {
		t.Error("want error for single point")
	}
	if _, err := Linreg([]float64{2, 2, 2}, []float64{1, 2, 3}); err != ErrDegenerate {
		t.Errorf("want ErrDegenerate for zero-variance x, got %v", err)
	}
}

func TestMeanAndClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp wrong")
	}
}
