// Package accel models the accelerometer path of §III-B: synthetic
// acceleration-magnitude traces for phones riding buses, rapid trains, or
// standing still, and the variance-threshold classifier the paper uses to
// discard beep detections made at train stations ("buses usually move
// with frequent acceleration, deceleration and turns, while rapid trains
// are operated more smoothly").
package accel

import (
	"fmt"

	"busprobe/internal/stats"
)

// Mode is the mobility context of a trace.
type Mode int

const (
	// ModeStill is a phone at rest (standing at a stop, pocketed).
	ModeStill Mode = iota
	// ModeBus is a phone riding a public bus.
	ModeBus
	// ModeTrain is a phone riding a rapid (MRT) train.
	ModeTrain
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeStill:
		return "still"
	case ModeBus:
		return "bus"
	case ModeTrain:
		return "train"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Gravity is standard gravity in m/s^2; traces are magnitudes around it.
const Gravity = 9.81

// TraceConfig parameterizes trace synthesis.
type TraceConfig struct {
	// SampleRate is the accelerometer rate in Hz (typically 50).
	SampleRate int
	// DurationS is the trace length in seconds.
	DurationS float64
	// Seed drives the randomness.
	Seed uint64
}

// DefaultTraceConfig returns a 60 s, 50 Hz trace configuration.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{SampleRate: 50, DurationS: 60, Seed: 1}
}

// Synthesize renders an acceleration-magnitude trace (m/s^2) for the
// mobility mode. Bus traces alternate accelerate / cruise / brake / dwell
// phases with strong engine vibration and turn transients; train traces
// have long, gentle acceleration ramps and low vibration; still traces
// carry only hand/pocket jitter.
func Synthesize(mode Mode, cfg TraceConfig) ([]float64, error) {
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("accel: non-positive sample rate %d", cfg.SampleRate)
	}
	if cfg.DurationS <= 0 {
		return nil, fmt.Errorf("accel: non-positive duration %v", cfg.DurationS)
	}
	rng := stats.NewRNG(cfg.Seed).Fork("accel-" + mode.String())
	n := int(cfg.DurationS * float64(cfg.SampleRate))
	out := make([]float64, n)
	dt := 1.0 / float64(cfg.SampleRate)

	switch mode {
	case ModeStill:
		for i := range out {
			out[i] = Gravity + rng.Norm(0, 0.03)
		}
	case ModeBus:
		synthVehicle(out, rng, dt, vehicleParams{
			phaseMeanS: 7, accelMag: 1.3, accelJit: 0.4,
			vibration: 0.35, turnRate: 0.05, turnMag: 1.0,
		})
	case ModeTrain:
		synthVehicle(out, rng, dt, vehicleParams{
			phaseMeanS: 35, accelMag: 0.45, accelJit: 0.1,
			vibration: 0.08, turnRate: 0.002, turnMag: 0.2,
		})
	default:
		return nil, fmt.Errorf("accel: unknown mode %v", mode)
	}
	return out, nil
}

// vehicleParams captures the kinematic texture of a vehicle type.
type vehicleParams struct {
	phaseMeanS float64 // mean duration of each motion phase
	accelMag   float64 // typical longitudinal acceleration magnitude
	accelJit   float64 // phase-to-phase variation of the magnitude
	vibration  float64 // white vibration noise sigma
	turnRate   float64 // probability per sample of a lateral transient
	turnMag    float64 // lateral transient magnitude
}

// synthVehicle fills out with a phase-structured vehicle trace.
func synthVehicle(out []float64, rng *stats.RNG, dt float64, p vehicleParams) {
	// Phases cycle: accelerate (+a), cruise (0), brake (-a), dwell (0).
	phase := 0
	remaining := rng.Exp(p.phaseMeanS)
	longAcc := 0.0
	for i := range out {
		remaining -= dt
		if remaining <= 0 {
			phase = (phase + 1) % 4
			remaining = rng.Exp(p.phaseMeanS)
			switch phase {
			case 0:
				longAcc = p.accelMag + rng.Norm(0, p.accelJit)
			case 2:
				longAcc = -(p.accelMag + rng.Norm(0, p.accelJit))
			default:
				longAcc = 0
			}
		}
		lat := 0.0
		if rng.Bool(p.turnRate) {
			lat = rng.Norm(0, p.turnMag)
		}
		// Magnitude approximation: gravity plus horizontal components
		// folded in (the phone measures |g + a|; for small a this is
		// close to g + a_parallel + noise).
		out[i] = Gravity + longAcc + lat + rng.Norm(0, p.vibration)
	}
}

// Classifier implements the paper's variance-threshold filter. Traces
// whose magnitude variance exceeds BusThreshold look like bus rides;
// smoother traces look like trains (or stillness) and their beep
// detections are discarded.
type Classifier struct {
	// BusThreshold is the minimum magnitude variance ((m/s^2)^2) for a
	// trace to be accepted as bus riding.
	BusThreshold float64
}

// DefaultClassifier returns the threshold used by the system.
func DefaultClassifier() Classifier {
	return Classifier{BusThreshold: 0.25}
}

// Variance returns the sample variance of a trace.
func (c Classifier) Variance(trace []float64) float64 {
	var acc stats.Accumulator
	for _, v := range trace {
		acc.Add(v)
	}
	return acc.Var()
}

// Classify buckets a trace into a mobility mode using two variance
// bands: below stillCeiling it is still, above BusThreshold it is a bus,
// in between a train.
func (c Classifier) Classify(trace []float64) Mode {
	const stillCeiling = 0.005
	v := c.Variance(trace)
	switch {
	case v <= stillCeiling:
		return ModeStill
	case v > c.BusThreshold:
		return ModeBus
	default:
		return ModeTrain
	}
}
