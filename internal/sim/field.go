package sim

import (
	"busprobe/internal/clock"
	"fmt"
	"math"

	"busprobe/internal/geo"
	"busprobe/internal/road"
	"busprobe/internal/stats"
)

// FieldConfig parameterizes the ground-truth traffic field.
type FieldConfig struct {
	// MorningPeakH and EveningPeakH are the rush-hour centers in hours.
	MorningPeakH, EveningPeakH float64
	// MorningDepth and EveningDepth scale how deep the rush slowdowns
	// cut (0..1 of free flow). The paper's region is slower at 08:30
	// than at 17:00 (university shuttles every morning), so the morning
	// default is deeper.
	MorningDepth, EveningDepth float64
	// PeakWidthH is the Gaussian width of each rush bump, in hours.
	PeakWidthH float64
	// FluctAmp is the amplitude of the slow per-segment fluctuation.
	FluctAmp float64
	// FreeFlowRatio is the fraction of the design speed that traffic
	// actually reaches with "little or no traffic": signals, turning
	// vehicles and pedestrians keep observed urban speeds well below
	// the empty-road design speed the Eq. 3 "a" term divides by.
	FreeFlowRatio float64
	// MinFactor floors the congestion factor (gridlock still moves).
	MinFactor float64
	// BusCapKmh is the bus speed limit; buses also run BusFactor times
	// the car speed when uncongested ("usually adhere to more strict
	// speed limits").
	BusCapKmh float64
	// BusFactor scales bus speed relative to cars.
	BusFactor float64
	// TaxiAggressiveness is the extra speed taxis squeeze out in light
	// traffic (the source of Fig. 10's high-speed gap between v_A and
	// v_T).
	TaxiAggressiveness float64
	// Seed drives the frozen per-segment parameters.
	Seed uint64
}

// DefaultFieldConfig returns the experiment configuration.
func DefaultFieldConfig() FieldConfig {
	return FieldConfig{
		MorningPeakH:       8.5,
		EveningPeakH:       18.0,
		MorningDepth:       0.45,
		EveningDepth:       0.32,
		PeakWidthH:         0.9,
		FluctAmp:           0.07,
		FreeFlowRatio:      0.66,
		MinFactor:          0.15,
		BusCapKmh:          62,
		BusFactor:          0.95,
		TaxiAggressiveness: 0.06,
		Seed:               1,
	}
}

// Validate rejects broken configurations.
func (c FieldConfig) Validate() error {
	if c.BusCapKmh <= 0 || c.BusFactor <= 0 {
		return fmt.Errorf("sim: non-positive bus parameters")
	}
	if c.MinFactor <= 0 || c.MinFactor >= 1 {
		return fmt.Errorf("sim: MinFactor %v outside (0,1)", c.MinFactor)
	}
	if c.FreeFlowRatio <= c.MinFactor || c.FreeFlowRatio > 1 {
		return fmt.Errorf("sim: FreeFlowRatio %v outside (MinFactor,1]", c.FreeFlowRatio)
	}
	if c.PeakWidthH <= 0 {
		return fmt.Errorf("sim: non-positive peak width")
	}
	return nil
}

// segParams are the frozen per-segment congestion characteristics.
type segParams struct {
	morningScale float64 // multiplies MorningDepth
	eveningScale float64
	fluctPhase   float64
	fluctFreqH   float64 // fluctuation cycles per hour
}

// Field is the ground-truth automobile speed field v_car(segment, t),
// with derived bus and taxi speeds. Immutable after construction; safe
// for concurrent readers.
type Field struct {
	net *road.Network
	cfg FieldConfig
	seg []segParams
}

// NewField builds the field over a network.
func NewField(net *road.Network, cfg FieldConfig) (*Field, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed).Fork("traffic-field")
	center := netCenter(net)
	maxDist := math.Max(net.BBox().Width(), net.BBox().Height()) / 2
	segs := make([]segParams, net.NumSegments())
	for i, s := range net.Segments() {
		r := rng.ForkN(uint64(i))
		// Segments near the region center congest harder, direction-
		// specific scales capture asymmetric rush flows.
		mid := s.Shape.At(s.LengthM() / 2)
		centrality := 1 - math.Min(1, dist(mid, center)/math.Max(maxDist, 1))
		segs[i] = segParams{
			morningScale: stats.Clamp(0.5+0.8*centrality+r.Norm(0, 0.25), 0.1, 1.6),
			eveningScale: stats.Clamp(0.5+0.8*centrality+r.Norm(0, 0.25), 0.1, 1.6),
			fluctPhase:   r.Range(0, 2*math.Pi),
			fluctFreqH:   r.Range(0.5, 2.0),
		}
	}
	return &Field{net: net, cfg: cfg, seg: segs}, nil
}

func netCenter(net *road.Network) [2]float64 {
	b := net.BBox()
	return [2]float64{(b.MinX + b.MaxX) / 2, (b.MinY + b.MaxY) / 2}
}

func dist(p geo.XY, c [2]float64) float64 {
	return math.Hypot(p.X-c[0], p.Y-c[1])
}

// CongestionFactor returns the instantaneous fraction of free-flow speed
// on a segment, in [MinFactor, 1.05].
func (f *Field) CongestionFactor(sid road.SegmentID, t float64) float64 {
	p := f.seg[sid]
	h := clock.HourOfDay(t)
	bump := func(center float64) float64 {
		d := h - center
		return math.Exp(-d * d / (2 * f.cfg.PeakWidthH * f.cfg.PeakWidthH))
	}
	factor := f.cfg.FreeFlowRatio * (1 -
		f.cfg.MorningDepth*p.morningScale*bump(f.cfg.MorningPeakH) -
		f.cfg.EveningDepth*p.eveningScale*bump(f.cfg.EveningPeakH) +
		f.cfg.FluctAmp*math.Sin(2*math.Pi*p.fluctFreqH*(t/3600)+p.fluctPhase))
	return stats.Clamp(factor, f.cfg.MinFactor, f.cfg.FreeFlowRatio*1.08)
}

// CarKmh returns the ground-truth automobile speed on a segment.
func (f *Field) CarKmh(sid road.SegmentID, t float64) float64 {
	return f.net.Segment(sid).FreeKmh * f.CongestionFactor(sid, t)
}

// BusKmh returns the in-motion bus speed on a segment: the car speed
// scaled by the bus factor and capped by the bus speed limit.
func (f *Field) BusKmh(sid road.SegmentID, t float64) float64 {
	v := f.CarKmh(sid, t) * f.cfg.BusFactor
	return math.Min(v, f.cfg.BusCapKmh)
}

// TaxiKmh returns the taxi speed on a segment: car speed plus the
// aggressiveness bonus that grows in light traffic (taxis overtake,
// speed, and lane-weave when they can).
func (f *Field) TaxiKmh(sid road.SegmentID, t float64) float64 {
	factor := f.CongestionFactor(sid, t)
	bonus := 1.0
	if factor > 0.5 {
		bonus += f.cfg.TaxiAggressiveness * (factor - 0.5) * 2
	}
	return f.CarKmh(sid, t) * bonus
}
