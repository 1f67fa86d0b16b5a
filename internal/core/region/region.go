// Package region implements the paper's first future-work item (§VI):
// "deriving the overall traffic of a region from the bus covered road
// segments". Bus routes cover about half the road network; this package
// extrapolates the covered segments' estimates to the rest of the city
// through a zone model.
//
// The city is partitioned into square zones. Each zone's congestion
// index is the length-weighted mean of (estimated speed / design speed)
// over the covered segments inside it; zones without covered segments
// borrow from their neighbours by inverse-distance weighting. An
// uncovered segment's speed is then predicted as its design speed times
// its zone's index. This mirrors the sparse-probe inference literature
// the paper cites ([9], [13]) at the level of fidelity the data supports.
package region

import (
	"fmt"
	"math"
	"slices"

	"busprobe/internal/core/traffic"
	"busprobe/internal/geo"
	"busprobe/internal/road"
)

// Config parameterizes the zone model.
type Config struct {
	// ZoneM is the square zone edge length.
	ZoneM float64
	// MinCoveredLengthM is the covered road length a zone needs before
	// its own index is trusted (below it, neighbours dominate).
	MinCoveredLengthM float64
	// NeighborRadius is how many zone rings to borrow from when a zone
	// has no coverage.
	NeighborRadius int
}

// DefaultConfig returns 1 km zones.
func DefaultConfig() Config {
	return Config{ZoneM: 1000, MinCoveredLengthM: 300, NeighborRadius: 3}
}

// Validate rejects broken configurations.
func (c Config) Validate() error {
	if c.ZoneM <= 0 {
		return fmt.Errorf("region: non-positive zone size %v", c.ZoneM)
	}
	if c.NeighborRadius < 1 {
		return fmt.Errorf("region: neighbor radius must be >= 1")
	}
	return nil
}

// Zone addresses one square cell of the city-wide zone grid. The same
// grid that extrapolates traffic (§VI) also gives any city position a
// stable discrete address, which the backend's spatial sharding uses to
// order route groups deterministically.
type Zone struct{ X, Y int }

// ZoneAt maps a position to its zone on a grid of zoneM-sized squares.
func ZoneAt(p geo.XY, zoneM float64) Zone {
	return Zone{X: int(math.Floor(p.X / zoneM)), Y: int(math.Floor(p.Y / zoneM))}
}

// Less orders zones column-major (X, then Y), the deterministic sweep
// order the shard partitioner assigns route groups in.
func (z Zone) Less(o Zone) bool {
	if z.X != o.X {
		return z.X < o.X
	}
	return z.Y < o.Y
}

// zoneKey addresses a zone (internal alias of Zone).
type zoneKey = Zone

// zoneAgg accumulates a zone's covered evidence.
type zoneAgg struct {
	ratioLen float64 // sum of (speed/design) * length
	length   float64 // covered length
}

// Model is a fitted regional traffic model. Build one per map refresh
// with Infer; it is immutable afterwards.
type Model struct {
	cfg     Config
	net     *road.Network
	zones   map[zoneKey]float64 // congestion index per zone with coverage
	overall float64             // city-wide length-weighted index
}

// Infer fits the zone model from the current per-segment estimates.
func Infer(net *road.Network, estimates map[road.SegmentID]traffic.Estimate, cfg Config) (*Model, error) {
	if net == nil {
		return nil, fmt.Errorf("region: nil network")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(estimates) == 0 {
		return nil, fmt.Errorf("region: no covered segments to infer from")
	}
	// Accumulate in segment order: float sums are order-sensitive, and
	// the model must be a pure function of the map (two deployments
	// holding the same snapshot answer /v1/region byte-identically).
	sids := make([]road.SegmentID, 0, len(estimates))
	for sid := range estimates {
		sids = append(sids, sid)
	}
	slices.Sort(sids)
	agg := make(map[zoneKey]*zoneAgg)
	var totalRatioLen, totalLen float64
	for _, sid := range sids {
		est := estimates[sid]
		seg := net.Segment(sid)
		ratio := est.SpeedKmh / seg.FreeKmh
		mid := seg.Shape.At(seg.LengthM() / 2)
		key := zoneOf(mid, cfg.ZoneM)
		a := agg[key]
		if a == nil {
			a = &zoneAgg{}
			agg[key] = a
		}
		a.ratioLen += ratio * seg.LengthM()
		a.length += seg.LengthM()
		totalRatioLen += ratio * seg.LengthM()
		totalLen += seg.LengthM()
	}
	m := &Model{
		cfg:     cfg,
		net:     net,
		zones:   make(map[zoneKey]float64, len(agg)),
		overall: totalRatioLen / totalLen,
	}
	for key, a := range agg {
		if a.length >= cfg.MinCoveredLengthM {
			m.zones[key] = a.ratioLen / a.length
		}
	}
	if len(m.zones) == 0 {
		// Coverage too thin everywhere; fall back to one city zone.
		for key, a := range agg {
			m.zones[key] = a.ratioLen / a.length
		}
	}
	return m, nil
}

// zoneOf maps a position to its zone.
func zoneOf(p geo.XY, zoneM float64) zoneKey { return ZoneAt(p, zoneM) }

// OverallIndex returns the city-wide congestion index: the
// length-weighted mean speed/design ratio over covered roads.
func (m *Model) OverallIndex() float64 { return m.overall }

// ZoneIndex returns the congestion index at a position: the zone's own
// index if covered, otherwise an inverse-distance blend of covered
// neighbours within the configured radius, otherwise the city overall.
func (m *Model) ZoneIndex(p geo.XY) float64 {
	key := zoneOf(p, m.cfg.ZoneM)
	if idx, ok := m.zones[key]; ok {
		return idx
	}
	var wsum, vsum float64
	for dx := -m.cfg.NeighborRadius; dx <= m.cfg.NeighborRadius; dx++ {
		for dy := -m.cfg.NeighborRadius; dy <= m.cfg.NeighborRadius; dy++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nb := zoneKey{X: key.X + dx, Y: key.Y + dy}
			idx, ok := m.zones[nb]
			if !ok {
				continue
			}
			d := math.Hypot(float64(dx), float64(dy))
			w := 1 / (d * d)
			wsum += w
			vsum += w * idx
		}
	}
	if wsum == 0 {
		return m.overall
	}
	return vsum / wsum
}

// PredictKmh predicts the automobile speed of any road segment — covered
// or not — as design speed times the local zone index.
func (m *Model) PredictKmh(sid road.SegmentID) float64 {
	seg := m.net.Segment(sid)
	mid := seg.Shape.At(seg.LengthM() / 2)
	return seg.FreeKmh * m.ZoneIndex(mid)
}

// CoveredZones returns how many zones carry their own index.
func (m *Model) CoveredZones() int { return len(m.zones) }
