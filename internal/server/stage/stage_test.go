package stage

import (
	"context"
	"sync"
	"testing"
	"time"

	"busprobe/internal/cellular"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/probe"
)

func emptyFingerprintDB(t *testing.T) *fingerprint.DB {
	t.Helper()
	db, err := fingerprint.NewDB(fingerprint.DefaultScoring(), fingerprint.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func sampleAt(tS float64) probe.Sample {
	return probe.Sample{
		TimeS:    tS,
		Readings: []cellular.Reading{{Cell: 1, RSS: -60}, {Cell: 2, RSS: -70}},
	}
}

// matchOnly builds a pipeline whose Match stage is runnable: the other
// stages' databases stay nil, which construction and Metrics never
// touch.
func matchOnly(t *testing.T, hook Hook) *Pipeline {
	t.Helper()
	return New(emptyFingerprintDB(t), nil, nil, Config{Hook: hook})
}

func TestMatcherEmptyDBDropsEverything(t *testing.T) {
	p := matchOnly(t, nil)
	elems := p.Match(context.Background(), []probe.Sample{sampleAt(1), sampleAt(2), sampleAt(3)})
	if len(elems) != 0 {
		t.Errorf("empty DB matched %d samples", len(elems))
	}
	got := p.Metrics()[0]
	if got.Stage != "match" || got.Runs != 1 || got.ItemsIn != 3 || got.ItemsOut != 0 || got.Dropped != 3 {
		t.Errorf("metrics = %+v", got)
	}
}

func TestInstrumentAccumulatesAcrossRuns(t *testing.T) {
	p := matchOnly(t, nil)
	p.Match(context.Background(), []probe.Sample{sampleAt(1), sampleAt(2)})
	p.Match(context.Background(), []probe.Sample{sampleAt(3)})
	got := p.Metrics()[0]
	if got.Runs != 2 || got.ItemsIn != 3 || got.Dropped != 3 {
		t.Errorf("metrics = %+v", got)
	}
	if got.DurationNs < 0 {
		t.Errorf("negative duration %d", got.DurationNs)
	}
	if got.Duration() != time.Duration(got.DurationNs) {
		t.Error("Duration() disagrees with DurationNs")
	}
}

func TestHookObservesEveryRun(t *testing.T) {
	type call struct {
		stage            string
		in, out, dropped int
	}
	var mu sync.Mutex
	var calls []call
	hook := func(_ context.Context, stage string, itemsIn, itemsOut, dropped int, d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, call{stage, itemsIn, itemsOut, dropped})
	}
	p := matchOnly(t, hook)
	p.Match(context.Background(), []probe.Sample{sampleAt(1), sampleAt(2)})
	p.Match(context.Background(), nil)
	if len(calls) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(calls))
	}
	if calls[0] != (call{"match", 2, 0, 2}) {
		t.Errorf("first call = %+v", calls[0])
	}
	if calls[1] != (call{"match", 0, 0, 0}) {
		t.Errorf("second call = %+v", calls[1])
	}
}

func TestPipelineMetricsOrder(t *testing.T) {
	// Construction and metrics never touch the databases, so nil
	// dependencies are fine here.
	p := New(nil, nil, nil, Config{})
	want := Names
	ms := p.Metrics()
	if len(ms) != len(want) {
		t.Fatalf("metrics rows = %d, want %d", len(ms), len(want))
	}
	for i, m := range ms {
		if m.Stage != want[i] {
			t.Errorf("stage %d = %q, want %q", i, m.Stage, want[i])
		}
		if m.Runs != 0 || m.ItemsIn != 0 {
			t.Errorf("fresh stage %q has counts: %+v", m.Stage, m)
		}
	}
}

func TestMetricsConcurrentReads(t *testing.T) {
	// Metrics snapshots must be safe while runs are in flight.
	p := matchOnly(t, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Match(context.Background(), []probe.Sample{sampleAt(float64(i))})
				_ = p.Metrics()
			}
		}()
	}
	wg.Wait()
	got := p.Metrics()[0]
	if got.Runs != 200 || got.ItemsIn != 200 {
		t.Errorf("metrics after concurrent runs = %+v", got)
	}
}
