// Package geo provides the planar primitives used across busprobe:
// positions in a local meter frame, polylines with arc-length
// interpolation, and bounding boxes.
package geo

import "math"

// XY is a position in a local tangent-plane frame, in meters east (X) and
// north (Y) of the city's origin.
type XY struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// DistM returns the Euclidean distance between two local positions.
func DistM(a, b XY) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// Lerp linearly interpolates between two local positions; t in [0,1].
func Lerp(a, b XY, t float64) XY {
	return XY{X: a.X + (b.X-a.X)*t, Y: a.Y + (b.Y-a.Y)*t}
}

// BBox is an axis-aligned bounding box in local meters.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// Expand grows the box by m meters on every side.
func (b BBox) Expand(m float64) BBox {
	return BBox{MinX: b.MinX - m, MinY: b.MinY - m, MaxX: b.MaxX + m, MaxY: b.MaxY + m}
}

// Width returns the box width in meters.
func (b BBox) Width() float64 { return b.MaxX - b.MinX }

// Height returns the box height in meters.
func (b BBox) Height() float64 { return b.MaxY - b.MinY }

// AreaKm2 returns the box area in square kilometers.
func (b BBox) AreaKm2() float64 { return b.Width() * b.Height() / 1e6 }

// BBoxOf computes the bounding box of a non-empty set of positions.
func BBoxOf(pts []XY) BBox {
	if len(pts) == 0 {
		return BBox{}
	}
	b := BBox{MinX: pts[0].X, MinY: pts[0].Y, MaxX: pts[0].X, MaxY: pts[0].Y}
	for _, p := range pts[1:] {
		b.MinX = math.Min(b.MinX, p.X)
		b.MinY = math.Min(b.MinY, p.Y)
		b.MaxX = math.Max(b.MaxX, p.X)
		b.MaxY = math.Max(b.MaxY, p.Y)
	}
	return b
}

// Polyline is an ordered sequence of local positions with cached
// cumulative arc lengths, supporting O(log n) interpolation along its
// length. It is the shape primitive for road segments and bus routes.
type Polyline struct {
	pts []XY
	cum []float64 // cum[i] = arc length from pts[0] to pts[i]
}

// NewPolyline builds a polyline over a copy of pts. It panics if fewer
// than two points are supplied.
func NewPolyline(pts []XY) *Polyline {
	if len(pts) < 2 {
		panic("geo: polyline needs at least two points")
	}
	cp := make([]XY, len(pts))
	copy(cp, pts)
	cum := make([]float64, len(cp))
	for i := 1; i < len(cp); i++ {
		cum[i] = cum[i-1] + DistM(cp[i-1], cp[i])
	}
	return &Polyline{pts: cp, cum: cum}
}

// Length returns the total arc length in meters.
func (pl *Polyline) Length() float64 { return pl.cum[len(pl.cum)-1] }

// At returns the position at arc length s from the start, clamping s to
// [0, Length].
func (pl *Polyline) At(s float64) XY {
	if s <= 0 {
		return pl.pts[0]
	}
	if s >= pl.Length() {
		return pl.pts[len(pl.pts)-1]
	}
	// Binary search for the containing segment.
	lo, hi := 0, len(pl.cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pl.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	seg := pl.cum[hi] - pl.cum[lo]
	t := 0.0
	if seg > 0 {
		t = (s - pl.cum[lo]) / seg
	}
	return Lerp(pl.pts[lo], pl.pts[hi], t)
}
