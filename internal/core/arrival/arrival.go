// Package arrival implements bus arrival-time prediction on top of the
// live traffic map — the application the authors' prior MobiSys'12 work
// provided and §VI positions this system to feed ("predicting bus
// arrival time with mobile phone based participatory sensing").
//
// Given a bus known to have departed stop i of a route at time t, the
// predictor walks the remaining legs, converting each covered road
// segment's estimated automobile travel time back to bus travel time by
// inverting the Eq. 3 transit model (BTT = (ATT - a) / b), falling back
// to design-speed travel scaled by a default congestion assumption on
// uncovered segments, and adding an expected dwell per intermediate
// stop.
package arrival

import (
	"fmt"

	"busprobe/internal/core/traffic"
	"busprobe/internal/road"
	"busprobe/internal/transit"
)

// Config tunes the predictor.
type Config struct {
	// Model is the Eq. 3 transit model to invert (use the backend's).
	Model traffic.Model
	// DwellS is the expected dwell at each intermediate stop.
	DwellS float64
	// FallbackRatio is the assumed speed/design ratio on segments
	// without estimates.
	FallbackRatio float64
	// BusCapKmh caps the implied bus speed (schedules and speed
	// governors bound buses regardless of traffic).
	BusCapKmh float64
	// MinKmh floors the implied bus speed.
	MinKmh float64
	// MeasuredOverheadS corrects a systematic of the traffic map's
	// inputs: the backend's BTT runs from the last card tap at one stop
	// to the first tap at the next (Fig. 6), so each measured leg
	// carries a few seconds of stationary time that is not driving.
	// The Eq. 3 inversion would otherwise double-count it against
	// DwellS. Subtracted per leg, proportional to the live-covered
	// share.
	MeasuredOverheadS float64
}

// DefaultConfig mirrors the deployed system's assumptions.
func DefaultConfig() Config {
	return Config{
		Model:             traffic.DefaultModel(),
		DwellS:            14,
		FallbackRatio:     0.6,
		BusCapKmh:         62,
		MinKmh:            4,
		MeasuredOverheadS: 5,
	}
}

// Validate rejects broken configurations.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.DwellS < 0 || c.FallbackRatio <= 0 || c.FallbackRatio > 1 {
		return fmt.Errorf("arrival: bad dwell/fallback %+v", c)
	}
	if c.BusCapKmh <= c.MinKmh || c.MinKmh <= 0 {
		return fmt.Errorf("arrival: bad speed bounds %+v", c)
	}
	if c.MeasuredOverheadS < 0 {
		return fmt.Errorf("arrival: negative overhead %v", c.MeasuredOverheadS)
	}
	return nil
}

// TrafficSource supplies per-segment estimates. *traffic.Estimator
// implements it over whatever snapshot is current at each Get;
// *traffic.Snapshot implements it over one pinned version.
type TrafficSource interface {
	Get(sid road.SegmentID) (traffic.Estimate, bool)
}

var (
	_ TrafficSource = (*traffic.Estimator)(nil)
	_ TrafficSource = (*traffic.Snapshot)(nil)
)

// Prediction is one downstream stop's forecast (and, through its tags,
// the serving API's arrivals row).
type Prediction struct {
	StopIdx int            `json:"stopIdx"`
	Stop    transit.StopID `json:"stop"`
	ArriveS float64        `json:"arriveS"`
	// CoveredFrac is the fraction of the predicted driving time that
	// came from live estimates rather than the fallback assumption.
	CoveredFrac float64 `json:"coveredFrac"`
}

// Predictor forecasts arrivals over a transit network.
type Predictor struct {
	cfg Config
	net *road.Network
}

// NewPredictor returns a predictor over the road network.
func NewPredictor(net *road.Network, cfg Config) (*Predictor, error) {
	if net == nil {
		return nil, fmt.Errorf("arrival: nil network")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{cfg: cfg, net: net}, nil
}

// Predict forecasts arrival times at every stop after fromIdx for a bus
// that departs stop fromIdx of the route at departS, using the current
// traffic estimates.
func (p *Predictor) Predict(rt *transit.Route, fromIdx int, departS float64, src TrafficSource) ([]Prediction, error) {
	if rt == nil {
		return nil, fmt.Errorf("arrival: nil route")
	}
	if src == nil {
		return nil, fmt.Errorf("arrival: nil traffic source")
	}
	if fromIdx < 0 || fromIdx >= rt.NumStops()-1 {
		return nil, fmt.Errorf("arrival: fromIdx %d out of range", fromIdx)
	}
	now := departS
	var out []Prediction
	for i := fromIdx; i < rt.NumLegs(); i++ {
		leg := rt.Leg(p.net, i)
		var legS, coveredS float64
		for _, sid := range leg.Segments {
			segS, covered := p.segmentBusTime(sid, src)
			legS += segS
			if covered {
				coveredS += segS
			}
		}
		frac := 0.0
		if legS > 0 {
			frac = coveredS / legS
		}
		// Remove the tap-window bias embedded in live-derived times,
		// never cutting a leg below half its raw prediction.
		correction := p.cfg.MeasuredOverheadS * frac
		if correction > legS/2 {
			correction = legS / 2
		}
		now += legS - correction
		out = append(out, Prediction{
			StopIdx:     i + 1,
			Stop:        rt.Stops[i+1],
			ArriveS:     now,
			CoveredFrac: frac,
		})
		// Dwell before departing the intermediate stop (not added after
		// the final arrival).
		if i+1 < rt.NumLegs() {
			now += p.cfg.DwellS
		}
	}
	return out, nil
}

// segmentBusTime predicts the bus traversal time of one segment and
// whether a live estimate backed it.
func (p *Predictor) segmentBusTime(sid road.SegmentID, src TrafficSource) (float64, bool) {
	seg := p.net.Segment(sid)
	length := seg.LengthM()
	est, ok := src.Get(sid)
	var busKmh float64
	if ok && est.SpeedKmh > 0 {
		// Invert Eq. 3: ATT = a + b·BTT, with ATT from the estimate.
		attS := length / (est.SpeedKmh / 3.6)
		aS := seg.FreeTravelS()
		bttS := (attS - aS) / p.cfg.Model.B
		if bttS > 0 {
			busKmh = length / bttS * 3.6
		} else {
			// Estimate at/above design speed: bus runs at its cap.
			busKmh = p.cfg.BusCapKmh
		}
	} else {
		busKmh = seg.FreeKmh * p.cfg.FallbackRatio
		ok = false
	}
	if busKmh > p.cfg.BusCapKmh {
		busKmh = p.cfg.BusCapKmh
	}
	if busKmh < p.cfg.MinKmh {
		busKmh = p.cfg.MinKmh
	}
	return length / (busKmh / 3.6), ok
}
