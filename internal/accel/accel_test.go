package accel

import (
	"math"
	"testing"
)

func synth(t *testing.T, mode Mode, seed uint64) []float64 {
	t.Helper()
	cfg := DefaultTraceConfig()
	cfg.Seed = seed
	trace, err := Synthesize(mode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestSynthesizeLength(t *testing.T) {
	trace := synth(t, ModeBus, 1)
	if len(trace) != 3000 {
		t.Fatalf("length = %d, want 3000", len(trace))
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(ModeBus, TraceConfig{SampleRate: 0, DurationS: 1}); err == nil {
		t.Error("want error for zero rate")
	}
	if _, err := Synthesize(ModeBus, TraceConfig{SampleRate: 50, DurationS: 0}); err == nil {
		t.Error("want error for zero duration")
	}
	if _, err := Synthesize(Mode(42), DefaultTraceConfig()); err == nil {
		t.Error("want error for unknown mode")
	}
}

func TestTracesHoverAroundGravity(t *testing.T) {
	for _, mode := range []Mode{ModeStill, ModeBus, ModeTrain} {
		trace := synth(t, mode, 2)
		var sum float64
		for _, v := range trace {
			sum += v
		}
		mean := sum / float64(len(trace))
		if math.Abs(mean-Gravity) > 1.0 {
			t.Errorf("%v trace mean %v far from gravity", mode, mean)
		}
	}
}

func TestVarianceOrdering(t *testing.T) {
	c := DefaultClassifier()
	for seed := uint64(1); seed <= 10; seed++ {
		still := c.Variance(synth(t, ModeStill, seed))
		train := c.Variance(synth(t, ModeTrain, seed))
		bus := c.Variance(synth(t, ModeBus, seed))
		if !(still < train && train < bus) {
			t.Errorf("seed %d: variance ordering violated: still=%v train=%v bus=%v",
				seed, still, train, bus)
		}
	}
}

func TestClassifierSeparatesBusFromTrain(t *testing.T) {
	c := DefaultClassifier()
	busOK, trainOK := 0, 0
	const trials = 30
	for seed := uint64(1); seed <= trials; seed++ {
		if c.Classify(synth(t, ModeBus, seed)) == ModeBus {
			busOK++
		}
		if c.Classify(synth(t, ModeTrain, seed)) != ModeBus {
			trainOK++
		}
	}
	if busOK < trials*9/10 {
		t.Errorf("bus recall %d/%d", busOK, trials)
	}
	if trainOK < trials*9/10 {
		t.Errorf("train rejection %d/%d", trainOK, trials)
	}
}

func TestClassifyThreeWay(t *testing.T) {
	c := DefaultClassifier()
	if got := c.Classify(synth(t, ModeStill, 3)); got != ModeStill {
		t.Errorf("still classified as %v", got)
	}
	if got := c.Classify(synth(t, ModeBus, 3)); got != ModeBus {
		t.Errorf("bus classified as %v", got)
	}
	if got := c.Classify(synth(t, ModeTrain, 3)); got != ModeTrain {
		t.Errorf("train classified as %v", got)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := synth(t, ModeBus, 5)
	b := synth(t, ModeBus, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("traces differ for same seed")
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeBus.String() != "bus" || ModeTrain.String() != "train" || ModeStill.String() != "still" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestVarianceEmptyTrace(t *testing.T) {
	c := DefaultClassifier()
	if c.Variance(nil) != 0 {
		t.Error("empty variance should be 0")
	}
	if c.Classify(nil) == ModeBus {
		t.Error("empty trace should not be bus-like")
	}
}
