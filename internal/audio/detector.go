package audio

import (
	"fmt"
	"math"
)

// Detection is one recognized beep event.
type Detection struct {
	// TimeS is the event time in seconds from the start of the stream.
	TimeS float64
	// Score is the normalized band power at detection, in units of
	// baseline standard deviations above the baseline mean.
	Score float64
}

// DetectorConfig tunes the beep detector.
type DetectorConfig struct {
	// FrameS is the analysis frame length; the paper uses a 30 ms
	// sliding averaging window.
	FrameS float64
	// SigmaThreshold is the jump threshold in baseline standard
	// deviations; the paper uses an empirical three sigma.
	SigmaThreshold float64
	// MinJumpFactor additionally requires the smoothed band power to
	// exceed this multiple of the baseline mean. Per-frame noise band
	// power is roughly exponential, so a sigma rule alone fires on
	// noise tails; a reader beep concentrates orders of magnitude more
	// energy in its tones ("obviously jumps" in the paper's words).
	MinJumpFactor float64
	// SmoothFrames is the width of the sliding average over frame band
	// powers.
	SmoothFrames int
	// RefractoryS suppresses re-detection for this long after an event,
	// merging the multi-frame extent of one beep into one detection.
	RefractoryS float64
	// WarmupFrames is the number of initial frames used only to seed
	// the noise baseline.
	WarmupFrames int
}

// DefaultDetectorConfig matches §III-B: 30 ms windows and a 3-sigma jump
// rule.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		FrameS:         0.030,
		SigmaThreshold: 3,
		MinJumpFactor:  6,
		SmoothFrames:   3,
		RefractoryS:    0.4,
		WarmupFrames:   10,
	}
}

// Detector recognizes card-reader beeps in a PCM stream by monitoring
// the normalized Goertzel power of the profile's tones frame by frame.
// It keeps a running noise baseline (mean and deviation of the smoothed
// band power) and declares a beep when the power jumps more than
// SigmaThreshold deviations above it — the paper's detection rule. The
// zero value is unusable; construct with NewDetector. Not safe for
// concurrent use.
type Detector struct {
	profile    BeepProfile
	sampleRate int
	cfg        DetectorConfig

	frameLen int
	buf      []float64 // partial frame carried between Process calls
	frameIdx int

	smooth []float64 // ring of recent band powers for sliding average

	// Baseline statistics over smoothed power, excluding detections:
	// exponential moving mean and absolute deviation.
	baseMean float64
	baseDev  float64
	seeded   int

	lastDetectFrame int
}

// NewDetector returns a detector for the given reader profile.
func NewDetector(profile BeepProfile, sampleRate int, cfg DetectorConfig) (*Detector, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("audio: non-positive sample rate %d", sampleRate)
	}
	if len(profile.FreqsHz) == 0 {
		return nil, fmt.Errorf("audio: profile %q has no tones", profile.Name)
	}
	if cfg.FrameS <= 0 || cfg.SigmaThreshold <= 0 || cfg.SmoothFrames <= 0 {
		return nil, fmt.Errorf("audio: invalid detector config %+v", cfg)
	}
	for _, f := range profile.FreqsHz {
		if f <= 0 || f >= float64(sampleRate)/2 {
			return nil, fmt.Errorf("audio: tone %v Hz outside Nyquist band of %d Hz", f, sampleRate)
		}
	}
	return &Detector{
		profile:         profile,
		sampleRate:      sampleRate,
		cfg:             cfg,
		frameLen:        int(cfg.FrameS * float64(sampleRate)),
		lastDetectFrame: -1 << 30,
	}, nil
}

// Process consumes PCM samples (values roughly in [-1, 1]) and returns
// any beeps completed within them. It may be called repeatedly with
// arbitrary chunk sizes; partial frames are buffered.
func (d *Detector) Process(samples []float64) []Detection {
	var out []Detection
	d.buf = append(d.buf, samples...)
	for len(d.buf) >= d.frameLen {
		if det := d.processFrame(d.buf[:d.frameLen]); det != nil {
			out = append(out, *det)
		}
		d.buf = d.buf[d.frameLen:]
		d.frameIdx++
	}
	return out
}

// processFrame analyzes one frame and returns a detection if the smoothed
// normalized band power jumps above the baseline.
func (d *Detector) processFrame(frame []float64) *Detection {
	powers := GoertzelBank(frame, float64(d.sampleRate), d.profile.FreqsHz)
	energy := FrameEnergy(frame)
	if energy == 0 {
		energy = 1e-12
	}
	// All profile tones must be present: use the weakest band so a
	// single loud tone (e.g. train horn at 1 kHz) cannot trigger the
	// dual-tone profile.
	band := math.Inf(1)
	for _, p := range powers {
		norm := p / energy
		if norm < band {
			band = norm
		}
	}

	// Sliding average over recent frames (paper's w = 30 ms smoothing).
	d.smooth = append(d.smooth, band)
	if len(d.smooth) > d.cfg.SmoothFrames {
		d.smooth = d.smooth[1:]
	}
	var avg float64
	for _, v := range d.smooth {
		avg += v
	}
	avg /= float64(len(d.smooth))

	// Seed the baseline during warmup.
	const lam = 0.05 // baseline EMA rate
	if d.seeded < d.cfg.WarmupFrames {
		d.updateBaseline(avg, 0.2)
		d.seeded++
		return nil
	}

	dev := math.Max(d.baseDev, 1e-9)
	score := (avg - d.baseMean) / dev
	jumped := score > d.cfg.SigmaThreshold &&
		avg > d.cfg.MinJumpFactor*math.Max(d.baseMean, 1e-12)
	inRefractory := float64(d.frameIdx-d.lastDetectFrame)*d.cfg.FrameS < d.cfg.RefractoryS
	if jumped && !inRefractory {
		d.lastDetectFrame = d.frameIdx
		return &Detection{
			TimeS: float64(d.frameIdx) * d.cfg.FrameS,
			Score: score,
		}
	}
	// Update the baseline only with non-event frames so beeps do not
	// inflate it.
	if !jumped && !inRefractory {
		d.updateBaseline(avg, lam)
	}
	return nil
}

// updateBaseline folds a quiescent frame into the noise statistics.
func (d *Detector) updateBaseline(v, lam float64) {
	if d.seeded == 0 && d.baseMean == 0 && d.baseDev == 0 {
		d.baseMean = v
		d.baseDev = math.Abs(v) * 0.1
		return
	}
	d.baseMean += lam * (v - d.baseMean)
	dev := math.Abs(v - d.baseMean)
	d.baseDev += lam * (dev - d.baseDev)
}
