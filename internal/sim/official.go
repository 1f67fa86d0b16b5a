package sim

import (
	"fmt"

	"busprobe/internal/road"
	"busprobe/internal/stats"
)

// OfficialFeed simulates the transit authority's taxi-AVL traffic data
// (the paper's LTA feed from >1,000 moving taxis), which the evaluation
// uses as "official traffic" v_T. Each (segment, window) value is the
// window-average taxi speed plus frozen sampling noise — a deterministic
// function, so the feed never needs to move actual taxis.
type OfficialFeed struct {
	field *Field
	// WindowS is the aggregation window (the paper plots 5-minute
	// averages).
	WindowS float64
	// noiseSD is the per-window sampling noise (finite taxi counts).
	noiseSD float64
	seed    uint64
}

// NewOfficialFeed returns a feed over the ground-truth field.
func NewOfficialFeed(field *Field, windowS, noiseSD float64, seed uint64) (*OfficialFeed, error) {
	if field == nil {
		return nil, fmt.Errorf("sim: nil field")
	}
	if windowS <= 0 || noiseSD < 0 {
		return nil, fmt.Errorf("sim: bad feed parameters window=%v noise=%v", windowS, noiseSD)
	}
	return &OfficialFeed{field: field, WindowS: windowS, noiseSD: noiseSD, seed: seed}, nil
}

// SpeedKmh returns the official (taxi-derived) speed for the window
// containing time t on a segment.
func (o *OfficialFeed) SpeedKmh(sid road.SegmentID, t float64) float64 {
	w := int(t / o.WindowS)
	mid := (float64(w) + 0.5) * o.WindowS
	base := o.field.TaxiKmh(sid, mid)
	r := stats.NewRNG(o.seed ^ uint64(sid)*0x9e3779b97f4a7c15 ^ uint64(w)*0xbf58476d1ce4e5b9).Fork("lta")
	v := base + r.Norm(0, o.noiseSD)
	if v < 1 {
		v = 1
	}
	return v
}
