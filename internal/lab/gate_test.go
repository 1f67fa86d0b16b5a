package lab

import (
	"strings"
	"testing"
	"time"

	"busprobe/internal/clock"
)

// gateBaseline is the anchor the gate tests run against: clean suite
// at p95 2 ms, p99 5 ms, 1000 trips/s, with the default 4x tolerances.
func gateBaseline(t *testing.T) *Baseline {
	t.Helper()
	b, err := DecodeBaseline([]byte(`{
  "schema": "busprobe-lab-baseline/1",
  "latencyTolerance": 4,
  "throughputTolerance": 4,
  "suites": [
    {"suite": "clean", "p95S": 0.002, "p99S": 0.005, "tripsPerS": 1000}
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func gateResult(p95, p99, tput float64) *Result {
	return &Result{
		Schema: SchemaVersion, Suite: "clean", Pass: true,
		Latency:    Latency{Count: 100, P95S: p95, P99S: p99},
		Throughput: Throughput{TripsPerS: tput},
	}
}

// TestGateWithinEnvelope: a run inside every bound produces no
// violations, even when somewhat slower than the anchor.
func TestGateWithinEnvelope(t *testing.T) {
	b := gateBaseline(t)
	if v := b.Gate([]*Result{gateResult(0.004, 0.01, 600)}); len(v) != 0 {
		t.Fatalf("violations for an in-envelope run: %v", v)
	}
}

// TestGateCatchesSlowRun: a deliberately slowed run — the ISSUE's
// acceptance probe — trips the gate on every breached bound.
func TestGateCatchesSlowRun(t *testing.T) {
	b := gateBaseline(t)
	v := b.Gate([]*Result{gateResult(0.05, 0.2, 40)})
	if len(v) != 3 {
		t.Fatalf("want 3 violations (p95, p99, throughput), got %v", v)
	}
	for _, s := range v {
		if !strings.HasPrefix(s, "clean: ") {
			t.Errorf("violation not attributed to suite: %q", s)
		}
	}
}

// TestGateSkipsUnanchoredSuites: results for suites the baseline does
// not anchor pass unexamined.
func TestGateSkipsUnanchoredSuites(t *testing.T) {
	b := gateBaseline(t)
	r := gateResult(10, 10, 0.1)
	r.Suite = "surge"
	if v := b.Gate([]*Result{r}); len(v) != 0 {
		t.Fatalf("unanchored suite gated: %v", v)
	}
}

// TestDecodeBaselineRejections covers schema and field hygiene.
func TestDecodeBaselineRejections(t *testing.T) {
	if _, err := DecodeBaseline([]byte(`{"schema": "nope", "latencyTolerance": 1, "throughputTolerance": 1, "suites": []}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := DecodeBaseline([]byte(`{"schema": "busprobe-lab-baseline/1", "latencyTolerance": 1, "throughputTolerance": 1, "suites": [], "bogus": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := DecodeBaseline([]byte(`{"schema": "busprobe-lab-baseline/1", "latencyTolerance": -1, "throughputTolerance": 1, "suites": []}`)); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := DecodeBaseline([]byte(`{"schema": "busprobe-lab-baseline/1", "latencyTolerance": 1, "throughputTolerance": 1, "suites": [{"suite": ""}]}`)); err == nil {
		t.Error("unnamed suite accepted")
	}
	if _, err := DecodeBaseline([]byte(`{"schema": "busprobe-lab-baseline/1", "latencyTolerance": 1, "throughputTolerance": 1, "suites": [{"suite": "clena", "p95S": 1}]}`)); err == nil {
		t.Error("anchor for an unregistered suite accepted")
	}
}

// TestCIEnvelopeCoversEverySuite loads the committed envelope CI's
// lab-smoke gates against: it must decode (every anchor names a
// registered suite), and every registered suite must be anchored except
// the one the envelope's note explains.
func TestCIEnvelopeCoversEverySuite(t *testing.T) {
	b, err := LoadBaseline("ci-envelope.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Scenarios() {
		_, anchored := b.suite(s.Name)
		if want := s.Name != "drain-under-load"; anchored != want {
			t.Errorf("suite %q: anchored = %t, want %t", s.Name, anchored, want)
		}
	}
	if !strings.Contains(b.Note, "drain-under-load") {
		t.Error("envelope note does not say why drain-under-load is unanchored")
	}
}

// TestLatencyRecorderFakeClock drives the recorder with the
// deterministic clock: a frozen Fake plus explicit Advances yields
// exact per-request durations, so the digest is reproducible down to
// the histogram's bucket interpolation — no wall-clock read anywhere
// (the nowallclock analyzer enforces the same discipline statically).
func TestLatencyRecorderFakeClock(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0), 0)
	rec := NewLatencyRecorder(fake)
	observe := func(d time.Duration, n int) {
		for i := 0; i < n; i++ {
			start := rec.Start()
			fake.Advance(d)
			rec.Stop(start)
		}
	}
	observe(time.Millisecond, 90)    // bucket (0.0005, 0.001]
	observe(40*time.Millisecond, 9)  // bucket (0.02, 0.05]
	observe(800*time.Millisecond, 1) // bucket (0.5, 1]

	s := rec.Summary()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantMean := (90*0.001 + 9*0.040 + 0.800) / 100
	if diff := s.MeanS - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mean = %v, want %v", s.MeanS, wantMean)
	}
	if s.P50S <= 0.0005 || s.P50S > 0.001 {
		t.Errorf("p50 = %v, want in (0.0005, 0.001]", s.P50S)
	}
	if s.P95S <= 0.02 || s.P95S > 0.05 {
		t.Errorf("p95 = %v, want in (0.02, 0.05]", s.P95S)
	}
	// Rank 99 of 100 is exactly the cumulative count through the 40 ms
	// bucket, so the interpolation lands on that bucket's upper bound;
	// only quantiles past 0.99 reach into the 800 ms outlier's bucket.
	if s.P99S <= 0.02 || s.P99S > 0.05 {
		t.Errorf("p99 = %v, want in (0.02, 0.05]", s.P99S)
	}

	// The digest is a pure function of the observations: a second
	// recorder fed the same durations produces identical numbers.
	fake2 := clock.NewFake(time.Unix(1800000000, 0), 0)
	rec2 := NewLatencyRecorder(fake2)
	for _, d := range []time.Duration{time.Millisecond, 40 * time.Millisecond, 800 * time.Millisecond} {
		n := map[time.Duration]int{time.Millisecond: 90, 40 * time.Millisecond: 9, 800 * time.Millisecond: 1}[d]
		for i := 0; i < n; i++ {
			start := rec2.Start()
			fake2.Advance(d)
			rec2.Stop(start)
		}
	}
	if got := rec2.Summary(); got != s {
		t.Errorf("same observations, different digest: %+v vs %+v", got, s)
	}
}
