package lab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// BaselineSchema identifies the committed perf-baseline format
// (ci-envelope.json, next to this file).
const BaselineSchema = "busprobe-lab-baseline/1"

// Baseline is the committed perf envelope a run's results are gated
// against: per-suite latency and throughput anchors plus the tolerance
// factors that turn them into pass/fail bounds. Tolerances are
// multiplicative and deliberately loose — the gate is a tripwire for
// order-of-magnitude regressions on shared CI hardware, not a
// performance claim; single-digit percentage drift is the bench/
// module's business (go run -C bench . --workload W).
type Baseline struct {
	Schema string `json:"schema"`
	// Note documents how the anchors were measured.
	Note string `json:"note,omitempty"`
	// LatencyTolerance scales the latency anchors: a run fails when
	// p95 > anchor.P95S * LatencyTolerance (likewise p99). Zero
	// defaults to 4.
	LatencyTolerance float64 `json:"latencyTolerance"`
	// ThroughputTolerance divides the throughput anchor: a run fails
	// when tripsPerS < anchor.TripsPerS / ThroughputTolerance. Zero
	// defaults to 4.
	ThroughputTolerance float64 `json:"throughputTolerance"`
	// Suites are the per-suite anchors; results for suites without an
	// anchor pass the gate unexamined.
	Suites []SuiteBaseline `json:"suites"`
}

// SuiteBaseline anchors one suite's perf envelope.
type SuiteBaseline struct {
	Suite     string  `json:"suite"`
	P95S      float64 `json:"p95S"`
	P99S      float64 `json:"p99S"`
	TripsPerS float64 `json:"tripsPerS"`
}

// LoadBaseline reads and validates a committed baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lab: baseline: %w", err)
	}
	return DecodeBaseline(data)
}

// DecodeBaseline parses a baseline document, rejecting unknown fields,
// wrong schemas, and anchors for suites that are not registered — a
// renamed scenario must fail here rather than silently lose its gate.
func DecodeBaseline(data []byte) (*Baseline, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Baseline
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("lab: decode baseline: %w", err)
	}
	if b.Schema != BaselineSchema {
		return nil, fmt.Errorf("lab: baseline schema %q, want %q", b.Schema, BaselineSchema)
	}
	if b.LatencyTolerance < 0 || b.ThroughputTolerance < 0 {
		return nil, fmt.Errorf("lab: negative tolerance in baseline")
	}
	for _, s := range b.Suites {
		if _, ok := Lookup(s.Suite); !ok {
			return nil, fmt.Errorf("lab: baseline anchors unknown suite %q", s.Suite)
		}
	}
	return &b, nil
}

// suite returns the anchor for a suite name, if any.
func (b *Baseline) suite(name string) (SuiteBaseline, bool) {
	for _, s := range b.Suites {
		if s.Suite == name {
			return s, true
		}
	}
	return SuiteBaseline{}, false
}

// Gate compares results against the baseline and returns one violation
// string per breached bound (empty = within envelope).
func (b *Baseline) Gate(results []*Result) []string {
	latTol := b.LatencyTolerance
	if latTol == 0 {
		latTol = 4
	}
	tputTol := b.ThroughputTolerance
	if tputTol == 0 {
		tputTol = 4
	}

	var out []string
	for _, r := range results {
		anchor, ok := b.suite(r.Suite)
		if !ok {
			continue
		}
		if anchor.P95S > 0 && r.Latency.P95S > anchor.P95S*latTol {
			out = append(out, fmt.Sprintf("%s: p95 %.4fs exceeds baseline %.4fs x%.1f tolerance",
				r.Suite, r.Latency.P95S, anchor.P95S, latTol))
		}
		if anchor.P99S > 0 && r.Latency.P99S > anchor.P99S*latTol {
			out = append(out, fmt.Sprintf("%s: p99 %.4fs exceeds baseline %.4fs x%.1f tolerance",
				r.Suite, r.Latency.P99S, anchor.P99S, latTol))
		}
		if anchor.TripsPerS > 0 && r.Throughput.TripsPerS < anchor.TripsPerS/tputTol {
			out = append(out, fmt.Sprintf("%s: throughput %.1f trips/s below baseline %.1f / %.1f tolerance",
				r.Suite, r.Throughput.TripsPerS, anchor.TripsPerS, tputTol))
		}
	}
	return out
}
