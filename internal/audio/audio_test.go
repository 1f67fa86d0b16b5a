package audio

import (
	"math"
	"math/cmplx"
	"testing"

	"busprobe/internal/stats"
)

// tone renders a pure sine at freq for n samples.
func tone(freq float64, n, sampleRate int, amp float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = amp * math.Sin(2*math.Pi*freq*float64(i)/float64(sampleRate))
	}
	return out
}

func TestGoertzelPeaksAtTone(t *testing.T) {
	const sr = 8000
	frame := tone(1000, 240, sr, 1)
	at := Goertzel(frame, sr, 1000)
	off := Goertzel(frame, sr, 2000)
	if at < 100*off {
		t.Errorf("Goertzel not selective: at=%v off=%v", at, off)
	}
}

func TestGoertzelEmptyAndBadInputs(t *testing.T) {
	if Goertzel(nil, 8000, 1000) != 0 {
		t.Error("empty frame should give 0")
	}
	if Goertzel([]float64{1, 2}, 0, 1000) != 0 {
		t.Error("zero sample rate should give 0")
	}
}

func TestGoertzelBank(t *testing.T) {
	const sr = 8000
	frame := tone(1000, 240, sr, 1)
	for i := range frame {
		frame[i] += 0.5 * math.Sin(2*math.Pi*3000*float64(i)/float64(sr))
	}
	bank := GoertzelBank(frame, sr, []float64{1000, 3000, 2000})
	if bank[0] < bank[2]*50 || bank[1] < bank[2]*10 {
		t.Errorf("bank powers unexpected: %v", bank)
	}
}

func TestFFTKnownTransform(t *testing.T) {
	// FFT of [1,0,0,0] is all ones.
	x := []complex128{1, 0, 0, 0}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := stats.NewRNG(3)
	n := 256
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		v := rng.Norm(0, 1)
		x[i] = complex(v, 0)
		timeEnergy += v * v
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, c := range x {
		freqEnergy += real(c)*real(c) + imag(c)*imag(c)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy)/timeEnergy > 1e-9 {
		t.Errorf("Parseval violated: time=%v freq=%v", timeEnergy, freqEnergy)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err == nil {
		t.Error("want error for length 3")
	}
	if err := FFT(nil); err != nil {
		t.Errorf("nil input should be fine: %v", err)
	}
}

func TestFFTMatchesGoertzelOnPow2Frame(t *testing.T) {
	// On a power-of-two frame (no padding) the two estimators compute
	// the same DFT bin.
	const sr = 8000
	frame := tone(1000, 256, sr, 1)
	g := Goertzel(frame, sr, 1000)
	f, err := FFTBinPower(frame, sr, []float64{1000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-f[0])/math.Max(g, 1) > 1e-6 {
		t.Errorf("Goertzel %v vs FFT %v", g, f[0])
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(SingaporeBeep, nil, 0, DefaultSynthConfig()); err == nil {
		t.Error("want error for zero duration")
	}
	cfg := DefaultSynthConfig()
	cfg.SampleRate = 0
	if _, err := Synthesize(SingaporeBeep, nil, 1, cfg); err == nil {
		t.Error("want error for zero sample rate")
	}
}

func TestSynthesizeLengthAndBeepEnergy(t *testing.T) {
	cfg := DefaultSynthConfig()
	pcm, err := Synthesize(SingaporeBeep, []float64{1.0}, 2.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pcm) != 2*cfg.SampleRate {
		t.Fatalf("length = %d", len(pcm))
	}
	// 1 kHz band energy during the beep should dwarf the energy before.
	sr := float64(cfg.SampleRate)
	pre := pcm[int(0.5*sr) : int(0.5*sr)+240]
	mid := pcm[int(1.04*sr) : int(1.04*sr)+240]
	if Goertzel(mid, sr, 1000) < 10*Goertzel(pre, sr, 1000) {
		t.Error("beep band energy not prominent")
	}
	if Goertzel(mid, sr, 3000) < 10*Goertzel(pre, sr, 3000) {
		t.Error("beep 3 kHz band energy not prominent")
	}
}

func TestSynthesizeIgnoresOutOfRangeBeeps(t *testing.T) {
	cfg := DefaultSynthConfig()
	if _, err := Synthesize(SingaporeBeep, []float64{-5, 100}, 1.0, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDetectorFindsBeeps(t *testing.T) {
	cfg := DefaultSynthConfig()
	beeps := []float64{2.0, 5.0, 9.5}
	pcm, err := Synthesize(SingaporeBeep, beeps, 12.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(SingaporeBeep, cfg.SampleRate, DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	events := det.Process(pcm)
	if len(events) != len(beeps) {
		t.Fatalf("detected %d events, want %d: %+v", len(events), len(beeps), events)
	}
	for i, e := range events {
		if math.Abs(e.TimeS-beeps[i]) > 0.15 {
			t.Errorf("event %d at %v, want ~%v", i, e.TimeS, beeps[i])
		}
		if e.Score < 3 {
			t.Errorf("event %d score %v below threshold", i, e.Score)
		}
	}
}

func TestDetectorNoFalsePositivesOnNoise(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Seed = 99
	pcm, err := Synthesize(SingaporeBeep, nil, 30.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(SingaporeBeep, cfg.SampleRate, DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	events := det.Process(pcm)
	if len(events) > 1 {
		t.Errorf("false positives on pure noise: %+v", events)
	}
}

func TestDetectorRejectsSingleToneForDualProfile(t *testing.T) {
	// A loud 1 kHz-only tone must not trigger the dual-tone profile.
	cfg := DefaultSynthConfig()
	oneTone := BeepProfile{Name: "mono", FreqsHz: []float64{1000}, DurationS: 0.12}
	pcm, err := Synthesize(oneTone, []float64{2.0, 4.0}, 6.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(SingaporeBeep, cfg.SampleRate, DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	events := det.Process(pcm)
	if len(events) != 0 {
		t.Errorf("dual-tone detector triggered on single tone: %+v", events)
	}
}

func TestDetectorStreamingChunks(t *testing.T) {
	// Chunked processing must find the same events as one-shot.
	cfg := DefaultSynthConfig()
	beeps := []float64{1.5, 4.2}
	pcm, err := Synthesize(SingaporeBeep, beeps, 6.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewDetector(SingaporeBeep, cfg.SampleRate, DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	whole := one.Process(pcm)
	chunked, err := NewDetector(SingaporeBeep, cfg.SampleRate, DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []Detection
	for i := 0; i < len(pcm); i += 333 {
		end := i + 333
		if end > len(pcm) {
			end = len(pcm)
		}
		ev := chunked.Process(pcm[i:end])
		got = append(got, ev...)
	}
	if len(got) != len(whole) {
		t.Fatalf("chunked found %d, one-shot %d", len(got), len(whole))
	}
	for i := range got {
		if got[i].TimeS != whole[i].TimeS {
			t.Errorf("event %d time differs: %v vs %v", i, got[i].TimeS, whole[i].TimeS)
		}
	}
}

func TestDetectorLondonProfile(t *testing.T) {
	cfg := DefaultSynthConfig()
	pcm, err := Synthesize(LondonBeep, []float64{3.0}, 6.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(LondonBeep, cfg.SampleRate, DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	events := det.Process(pcm)
	if len(events) != 1 || math.Abs(events[0].TimeS-3.0) > 0.15 {
		t.Errorf("Oyster beep not detected: %+v", events)
	}
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(SingaporeBeep, 0, DefaultDetectorConfig()); err == nil {
		t.Error("want error for zero sample rate")
	}
	if _, err := NewDetector(BeepProfile{Name: "empty"}, 8000, DefaultDetectorConfig()); err == nil {
		t.Error("want error for empty profile")
	}
	if _, err := NewDetector(BeepProfile{FreqsHz: []float64{5000}}, 8000, DefaultDetectorConfig()); err == nil {
		t.Error("want error for tone above Nyquist")
	}
	bad := DefaultDetectorConfig()
	bad.FrameS = 0
	if _, err := NewDetector(SingaporeBeep, 8000, bad); err == nil {
		t.Error("want error for zero frame")
	}
}

func TestFrameEnergy(t *testing.T) {
	if FrameEnergy([]float64{3, 4}) != 25 {
		t.Error("FrameEnergy wrong")
	}
	if FrameEnergy(nil) != 0 {
		t.Error("empty energy should be 0")
	}
}

func BenchmarkGoertzelFrame(b *testing.B) {
	frame := tone(1000, 240, 8000, 1)
	targets := SingaporeBeep.FreqsHz
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GoertzelBank(frame, 8000, targets)
	}
}

func BenchmarkFFTFrame(b *testing.B) {
	frame := tone(1000, 240, 8000, 1)
	targets := SingaporeBeep.FreqsHz
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FFTBinPower(frame, 8000, targets); err != nil {
			b.Fatal(err)
		}
	}
}
