package stage

import (
	"context"
	"sync"
	"testing"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/core/cluster"
	"busprobe/internal/core/traffic"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/transit"
)

// TestFixedClockMakesDurationsDeterministic pins per-stage DurationNs
// exactly: with a stepping Fake clock, each run reads the clock twice
// (start, observe), so every run contributes exactly one step.
func TestFixedClockMakesDurationsDeterministic(t *testing.T) {
	const step = 5 * time.Millisecond
	p := New(emptyFingerprintDB(t), nil, nil, Config{Clock: clock.NewFake(time.Unix(1000, 0), step)})

	const runs = 4
	for i := 0; i < runs; i++ {
		p.Match(context.Background(), []probe.Sample{sampleAt(float64(i))})
	}
	got := p.Metrics()[0]
	if want := int64(runs) * int64(step); got.DurationNs != want {
		t.Fatalf("DurationNs = %d, want %d (deterministic under Fake clock)", got.DurationNs, want)
	}
	if got.Runs != runs {
		t.Fatalf("Runs = %d, want %d", got.Runs, runs)
	}
}

// TestPipelineClockConfigReachesEveryStage proves Config.Clock is wired
// into all five stages, and hooks see the same pinned durations.
func TestPipelineClockConfigReachesEveryStage(t *testing.T) {
	const step = time.Millisecond
	tdb := transit.NewBuilder(road.NewNetwork(nil, nil)).Build()
	est, err := traffic.NewEstimator(traffic.DefaultModel(), traffic.DefaultPeriodS, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var hookDs []time.Duration
	p := New(emptyFingerprintDB(t), tdb, est, Config{
		Cluster:     cluster.DefaultParams(),
		MinSpeedKmh: 1,
		MaxSpeedKmh: 100,
		Hook: func(_ context.Context, _ string, _, _, _ int, d time.Duration) {
			mu.Lock()
			hookDs = append(hookDs, d)
			mu.Unlock()
		},
		Clock: clock.NewFake(time.Unix(0, 0), step),
	})

	p.Match(context.Background(), nil)
	if _, err := p.Cluster(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Map(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	p.Extract(context.Background(), nil)
	p.Estimate(context.Background(), nil)

	for _, m := range p.Metrics() {
		if m.DurationNs != int64(step) {
			t.Fatalf("stage %s DurationNs = %d, want %d", m.Stage, m.DurationNs, int64(step))
		}
	}
	if len(hookDs) != 5 {
		t.Fatalf("hook fired %d times, want 5", len(hookDs))
	}
	for i, d := range hookDs {
		if d != step {
			t.Fatalf("hook observation %d duration = %v, want %v", i, d, step)
		}
	}
}
