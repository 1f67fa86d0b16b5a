package geo

import (
	"math"
	"testing"
)

func TestLerp(t *testing.T) {
	a, b := XY{X: 0, Y: 0}, XY{X: 10, Y: 20}
	if m := Lerp(a, b, 0.5); m.X != 5 || m.Y != 10 {
		t.Errorf("midpoint = %v", m)
	}
	if s := Lerp(a, b, 0); s != a {
		t.Errorf("t=0 gives %v", s)
	}
	if e := Lerp(a, b, 1); e != b {
		t.Errorf("t=1 gives %v", e)
	}
}

func TestBBox(t *testing.T) {
	pts := []XY{{1, 2}, {5, -3}, {-2, 7}}
	b := BBoxOf(pts)
	want := BBox{MinX: -2, MinY: -3, MaxX: 5, MaxY: 7}
	if b != want {
		t.Errorf("bbox = %+v, want %+v", b, want)
	}
	e := b.Expand(1)
	if e.MinX != -3 || e.MaxY != 8 {
		t.Errorf("Expand wrong: %+v", e)
	}
	if b.Width() != 7 || b.Height() != 10 {
		t.Errorf("dims wrong: %v x %v", b.Width(), b.Height())
	}
	if math.Abs(b.AreaKm2()-70.0/1e6) > 1e-15 {
		t.Errorf("area = %v", b.AreaKm2())
	}
}

func TestBBoxEmpty(t *testing.T) {
	if b := BBoxOf(nil); b != (BBox{}) {
		t.Errorf("empty bbox = %+v", b)
	}
}

func TestPolylineLengthAndAt(t *testing.T) {
	pl := NewPolyline([]XY{{0, 0}, {3, 0}, {3, 4}})
	if pl.Length() != 7 {
		t.Fatalf("length = %v, want 7", pl.Length())
	}
	cases := []struct {
		s    float64
		want XY
	}{
		{-1, XY{0, 0}},
		{0, XY{0, 0}},
		{1.5, XY{1.5, 0}},
		{3, XY{3, 0}},
		{5, XY{3, 2}},
		{7, XY{3, 4}},
		{100, XY{3, 4}},
	}
	for _, c := range cases {
		got := pl.At(c.s)
		if DistM(got, c.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestPolylineAtMonotoneProperty(t *testing.T) {
	pl := NewPolyline([]XY{{0, 0}, {10, 0}, {10, 10}, {20, 10}})
	// Walking forward along s never moves backwards in cumulative distance
	// from the start vertex along the path: check distance from start of
	// successive samples grows along the x+y taxicab structure used here.
	prev := 0.0
	for s := 0.0; s <= pl.Length(); s += 0.5 {
		p := pl.At(s)
		along := p.X + p.Y // for this staircase polyline, arc length == x+y
		if along+1e-9 < prev {
			t.Fatalf("At not monotone at s=%v", s)
		}
		prev = along
	}
}

func TestPolylinePanicsTooShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for short polyline")
		}
	}()
	NewPolyline([]XY{{0, 0}})
}

func TestPolylineCopies(t *testing.T) {
	src := []XY{{0, 0}, {1, 0}}
	pl := NewPolyline(src)
	src[0] = XY{99, 99}
	if pl.pts[0] != (XY{0, 0}) {
		t.Error("polyline aliased caller slice")
	}
}
