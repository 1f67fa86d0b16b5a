package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// ecdfOf builds an ECDF over xs the way the experiment harness does,
// one Add per observation.
func ecdfOf(xs []float64) *ECDF {
	var e ECDF
	for _, x := range xs {
		e.Add(x)
	}
	return &e
}

func TestECDFBasics(t *testing.T) {
	e := ecdfOf([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFWithTies(t *testing.T) {
	e := ecdfOf([]float64{2, 2, 2, 5})
	if got := e.At(2); got != 0.75 {
		t.Errorf("At(2) = %v, want 0.75 (ties included)", got)
	}
	if got := e.At(1.99); got != 0 {
		t.Errorf("At(1.99) = %v, want 0", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	var e ECDF
	if e.At(3) != 0 {
		t.Error("empty ECDF should return 0")
	}
}

func TestECDFQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	e := ecdfOf(xs)
	if m := e.Median(); m != 51 {
		t.Errorf("median = %v, want 51 (nearest rank)", m)
	}
	if q := e.Quantile(0); q != 1 {
		t.Errorf("q0 = %v, want 1", q)
	}
	if q := e.Quantile(1); q != 100 {
		t.Errorf("q1 = %v, want 100", q)
	}
	if p := e.Percentile(90); p != 91 {
		t.Errorf("p90 = %v, want 91", p)
	}
}

func TestECDFQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty Quantile")
		}
	}()
	(&ECDF{}).Quantile(0.5)
}

func TestECDFAddAfterQuery(t *testing.T) {
	e := ecdfOf([]float64{1, 3})
	_ = e.At(2)
	e.Add(2)
	if got := e.At(2); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("At(2) after Add = %v, want 2/3", got)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe []float64) bool {
		if len(raw) == 0 {
			return true
		}
		// Sanitize NaN/Inf out of the quick-generated input.
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := ecdfOf(xs)
		var ps []float64
		for _, p := range probe {
			if !math.IsNaN(p) && !math.IsInf(p, 0) {
				ps = append(ps, p)
			}
		}
		sort.Float64s(ps)
		prev := -1.0
		for _, p := range ps {
			v := e.At(p)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFTable(t *testing.T) {
	e := ecdfOf([]float64{1, 2})
	s := e.Table("score", []float64{0, 1, 2})
	if !strings.Contains(s, "score") || !strings.Contains(s, "1.0000") {
		t.Errorf("table output unexpected:\n%s", s)
	}
}
