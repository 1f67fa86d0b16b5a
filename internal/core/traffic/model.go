// Package traffic implements the paper's traffic-estimation stage
// (§III-D): converting observed bus travel times (BTT) on inter-stop road
// segments into general automobile travel times (ATT) with the linear
// transit model of Eq. 3, fusing reports from many riders with the
// Bayesian variance-weighted update of Eq. 4, and maintaining the
// per-segment traffic map refreshed every T = 5 minutes.
package traffic

import "fmt"

// Model is the Eq. 3 transit traffic model: ATT = a + b·BTT, where
// a = road length / free travel speed is an automobile's uncongested
// travel time and b scales how bus delay reflects general congestion.
// The paper's regressions put b in [0.3, 0.8] per segment and fix
// b = 0.5 system-wide.
type Model struct {
	B float64
}

// DefaultModel returns the paper's b = 0.5 setting.
func DefaultModel() Model { return Model{B: 0.5} }

// Validate rejects a non-positive congestion coefficient.
func (m Model) Validate() error {
	if m.B <= 0 {
		return fmt.Errorf("traffic: non-positive model coefficient %v", m.B)
	}
	return nil
}

// ATTSeconds converts a bus travel time over a stretch of road into the
// estimated automobile travel time (both in seconds).
func (m Model) ATTSeconds(lengthM, freeKmh, bttS float64) (float64, error) {
	if lengthM <= 0 || freeKmh <= 0 {
		return 0, fmt.Errorf("traffic: bad segment geometry length=%v free=%v", lengthM, freeKmh)
	}
	if bttS <= 0 {
		return 0, fmt.Errorf("traffic: non-positive BTT %v", bttS)
	}
	a := lengthM / (freeKmh / 3.6)
	return a + m.B*bttS, nil
}

// SpeedKmh converts a bus travel time into the estimated automobile
// speed over the stretch, in km/h.
func (m Model) SpeedKmh(lengthM, freeKmh, bttS float64) (float64, error) {
	att, err := m.ATTSeconds(lengthM, freeKmh, bttS)
	if err != nil {
		return 0, err
	}
	return lengthM / att * 3.6, nil
}

// Estimate is a fused speed belief for one road segment.
type Estimate struct {
	// SpeedKmh is the mean automobile speed estimate.
	SpeedKmh float64
	// Var is the estimate variance ((km/h)^2).
	Var float64
	// Reports counts the observations folded in.
	Reports int
	// UpdatedS is the simulation time of the last Bayesian update.
	UpdatedS float64
}

// Inflate applies process noise to a historic estimate: its variance
// grows linearly with the time since its last update, so stale beliefs
// yield to fresh observations. A zero rate is a no-op.
func Inflate(hist Estimate, nowS, driftVarPerS float64) Estimate {
	if hist.Reports == 0 || driftVarPerS <= 0 {
		return hist
	}
	dt := nowS - hist.UpdatedS
	if dt > 0 {
		hist.Var += driftVarPerS * dt
	}
	return hist
}

// Fuse applies Eq. 4: the precision-weighted combination of the historic
// estimate (v̄, σ̄²) with a new observation window (v, σ²):
//
//	v_new = (v·σ̄² + v̄·σ²) / (σ² + σ̄²)
//	σ²_new = σ²·σ̄² / (σ² + σ̄²)
func Fuse(hist Estimate, newSpeed, newVar float64) Estimate {
	if hist.Reports == 0 {
		// No prior: adopt the observation.
		return Estimate{SpeedKmh: newSpeed, Var: newVar, Reports: 1}
	}
	s2, h2 := newVar, hist.Var
	if s2 <= 0 {
		s2 = 1e-6
	}
	if h2 <= 0 {
		h2 = 1e-6
	}
	return Estimate{
		SpeedKmh: (newSpeed*h2 + hist.SpeedKmh*s2) / (s2 + h2),
		Var:      s2 * h2 / (s2 + h2),
		Reports:  hist.Reports + 1,
	}
}

// Level is a discrete traffic level for map rendering (Fig. 9 uses five
// speed levels).
type Level int

// Traffic levels from most congested to freest.
const (
	LevelVerySlow Level = iota
	LevelSlow
	LevelNormal
	LevelFast
	LevelVeryFast
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelVerySlow:
		return "very slow"
	case LevelSlow:
		return "slow"
	case LevelNormal:
		return "normal"
	case LevelFast:
		return "fast"
	case LevelVeryFast:
		return "very fast"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// LevelOf buckets an automobile speed into the five map levels using the
// paper's Fig. 9 legend boundaries (20/30/40/50 km/h).
func LevelOf(speedKmh float64) Level {
	switch {
	case speedKmh < 20:
		return LevelVerySlow
	case speedKmh < 30:
		return LevelSlow
	case speedKmh < 40:
		return LevelNormal
	case speedKmh < 50:
		return LevelFast
	default:
		return LevelVeryFast
	}
}
