package geo

import (
	"math"
	"testing"

	"busprobe/internal/stats"
)

// randomPolyline builds a polyline with 2-10 vertices in a 1 km box.
func randomPolyline(rng *stats.RNG) *Polyline {
	n := 2 + rng.Intn(9)
	pts := make([]XY, n)
	for i := range pts {
		pts[i] = XY{X: rng.Range(0, 1000), Y: rng.Range(0, 1000)}
	}
	return NewPolyline(pts)
}

func TestPolylineEndpointProperty(t *testing.T) {
	rng := stats.NewRNG(21)
	for trial := 0; trial < 300; trial++ {
		pl := randomPolyline(rng)
		if DistM(pl.At(0), pl.pts[0]) > 1e-9 {
			t.Fatal("At(0) != Start")
		}
		if DistM(pl.At(pl.Length()), pl.pts[len(pl.pts)-1]) > 1e-9 {
			t.Fatal("At(L) != End")
		}
	}
}

func TestPolylineLipschitzProperty(t *testing.T) {
	// Arc-length parameterization is 1-Lipschitz: straight-line distance
	// between two track points never exceeds the arc distance.
	rng := stats.NewRNG(22)
	for trial := 0; trial < 300; trial++ {
		pl := randomPolyline(rng)
		s1 := rng.Range(0, pl.Length())
		s2 := rng.Range(0, pl.Length())
		d := DistM(pl.At(s1), pl.At(s2))
		if d > math.Abs(s2-s1)+1e-9 {
			t.Fatalf("chord %v exceeds arc %v", d, math.Abs(s2-s1))
		}
	}
}

func TestPolylineInsideBBoxProperty(t *testing.T) {
	rng := stats.NewRNG(23)
	for trial := 0; trial < 300; trial++ {
		pl := randomPolyline(rng)
		box := BBoxOf(pl.pts).Expand(1e-9)
		for k := 0; k < 20; k++ {
			p := pl.At(rng.Range(0, pl.Length()))
			if p.X < box.MinX || p.X > box.MaxX || p.Y < box.MinY || p.Y > box.MaxY {
				t.Fatalf("point %v outside hull box %+v", p, box)
			}
		}
	}
}

func TestPolylineLengthIsVertexSumProperty(t *testing.T) {
	rng := stats.NewRNG(24)
	for trial := 0; trial < 300; trial++ {
		pl := randomPolyline(rng)
		pts := pl.pts
		var sum float64
		for i := 1; i < len(pts); i++ {
			sum += DistM(pts[i-1], pts[i])
		}
		if math.Abs(sum-pl.Length()) > 1e-9 {
			t.Fatalf("length %v != vertex sum %v", pl.Length(), sum)
		}
	}
}
