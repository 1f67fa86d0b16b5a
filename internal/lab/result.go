package lab

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// SchemaVersion identifies the standard result format. Every suite run
// emits exactly one Result carrying this schema string; consumers
// (the perf gate, CI artifact tooling)
// reject anything else, so drift fails loudly instead of silently.
const SchemaVersion = "busprobe-lab/1"

// Result is the one standard JSON document a scenario run emits. Field
// order is the wire order — Encode marshals the struct directly, and
// Go's encoding/json emits struct fields in declaration order, so the
// encoding is byte-stable for a given value (the golden-file test pins
// it).
type Result struct {
	// Schema is always SchemaVersion.
	Schema string `json:"schema"`
	// Suite is the scenario name ("clean", "chaos", ...).
	Suite string `json:"suite"`
	// Description restates what the scenario proves.
	Description string `json:"description"`
	// Topology names the server deployment driven: "monolith",
	// "shards-N" (in-process), or "shard-procs-N" (one process per
	// shard behind a coordinator process).
	Topology string `json:"topology"`
	// Seed is the master world seed the run derived everything from.
	Seed uint64 `json:"seed"`
	// Scale is the world preset ("small", "paper", "london").
	Scale string `json:"scale"`
	// Pass is the suite verdict: every check passed.
	Pass bool `json:"pass"`
	// Reasons lists each failed check's reason; empty on pass.
	Reasons []string `json:"reasons"`
	// Checks itemizes every named assertion the scenario made.
	Checks []Check `json:"checks"`
	// Load summarizes the offered traffic.
	Load Load `json:"load"`
	// Latency summarizes per-request upload latency (seconds).
	Latency Latency `json:"latency"`
	// Throughput summarizes delivery rate over the drive phase.
	Throughput Throughput `json:"throughput"`
	// Equivalence reports the /v1/traffic byte-equivalence check
	// against the reference run, when the scenario performs one.
	Equivalence *Equivalence `json:"equivalence,omitempty"`
	// Memory reports the bounded-memory verdict, when the scenario
	// asserts one (surge).
	Memory *Memory `json:"memory,omitempty"`
	// Reads summarizes the concurrent read load, when the scenario
	// drives one (read-storm).
	Reads *ReadStorm `json:"reads,omitempty"`
	// DurationS is the whole suite's wall-clock duration.
	DurationS float64 `json:"durationS"`
}

// Check is one named assertion inside a suite.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// Load summarizes what the scenario offered the server.
type Load struct {
	// Riders is the simulated rider population behind the corpus.
	Riders int `json:"riders"`
	// Days is the campaign length in simulated days.
	Days int `json:"days"`
	// TripsOffered counts upload attempts presented to the wire
	// (including fault-injected duplicates).
	TripsOffered int `json:"tripsOffered"`
	// TripsDelivered counts uploads the server accepted.
	TripsDelivered int `json:"tripsDelivered"`
	// TripsDuplicate counts duplicate rejections (409) — idempotent
	// successes, not failures.
	TripsDuplicate int `json:"tripsDuplicate"`
	// TripsFailed counts every other rejection or transport failure.
	TripsFailed int `json:"tripsFailed"`
}

// Latency is the upload-latency digest, in seconds, estimated from the
// harness's fixed-bucket histogram (internal/obs) timed by the
// injected clock (internal/clock).
type Latency struct {
	Count int64   `json:"count"`
	P50S  float64 `json:"p50S"`
	P95S  float64 `json:"p95S"`
	P99S  float64 `json:"p99S"`
	MeanS float64 `json:"meanS"`
}

// Throughput is the delivery-rate digest over the drive phase.
type Throughput struct {
	// TripsPerS is accepted trips per wall-clock second.
	TripsPerS float64 `json:"tripsPerS"`
	// RequestsPerS is HTTP requests per wall-clock second (differs
	// from TripsPerS when the driver batches).
	RequestsPerS float64 `json:"requestsPerS"`
	// WallS is the drive phase's wall-clock duration.
	WallS float64 `json:"wallS"`
}

// Equivalence reports the byte-equivalence of the system under test's
// /v1/traffic response against the reference run.
type Equivalence struct {
	// Reference names what the run was compared against.
	Reference string `json:"reference"`
	// Segments is the number of segment rows in the reference map.
	Segments int `json:"segments"`
	// ByteIdentical is the verdict.
	ByteIdentical bool `json:"byteIdentical"`
	// Detail localizes the first divergence on mismatch.
	Detail string `json:"detail,omitempty"`
}

// Memory is the bounded-memory verdict of a streaming scenario: the
// driver samples its own post-GC heap while generating load and the
// high-water growth must stay under the bound.
type Memory struct {
	// BoundBytes is the configured ceiling on heap growth.
	BoundBytes uint64 `json:"boundBytes"`
	// MaxHeapDeltaBytes is the observed high-water heap growth over
	// the pre-run baseline.
	MaxHeapDeltaBytes uint64 `json:"maxHeapDeltaBytes"`
	// Samples counts heap measurements taken.
	Samples int `json:"samples"`
	// Bounded is the verdict.
	Bounded bool `json:"bounded"`
}

// ReadStorm summarizes the read side of the read-storm scenario: how
// many concurrent readers ran against the ingesting server and what
// they observed.
type ReadStorm struct {
	// Pollers is the number of concurrent full-map GET loops.
	Pollers int `json:"pollers"`
	// Watchers is the number of concurrent /v1/traffic/watch loops.
	Watchers int `json:"watchers"`
	// PolledReads counts full-map responses (200) the pollers received.
	PolledReads int `json:"polledReads"`
	// NotModified counts conditional-GET hits (304) — reads that moved
	// no body because the snapshot version had not changed.
	NotModified int `json:"notModified"`
	// WatchPolls counts completed watch polls across the watchers.
	WatchPolls int `json:"watchPolls"`
	// ReadsPerS is total reads (200s + 304s + watch polls) per second of
	// drive-phase wall clock.
	ReadsPerS float64 `json:"readsPerS"`
}

// check appends a named assertion, folding a failure into the suite
// verdict and reasons.
func (r *Result) check(name string, pass bool, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: detail})
	if !pass {
		r.Pass = false
		reason := name
		if detail != "" {
			reason = fmt.Sprintf("%s: %s", name, detail)
		}
		r.Reasons = append(r.Reasons, reason)
	}
}

// Validate rejects malformed results: wrong schema, missing identity,
// or a verdict inconsistent with the checks and reasons.
func (r *Result) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("lab: result schema %q, want %q", r.Schema, SchemaVersion)
	}
	if r.Suite == "" {
		return fmt.Errorf("lab: result missing suite name")
	}
	if r.Pass && len(r.Reasons) > 0 {
		return fmt.Errorf("lab: passing result carries %d failure reasons", len(r.Reasons))
	}
	if !r.Pass && len(r.Reasons) == 0 {
		return fmt.Errorf("lab: failing result carries no reasons")
	}
	for _, c := range r.Checks {
		if c.Name == "" {
			return fmt.Errorf("lab: unnamed check in result")
		}
	}
	return nil
}

// Encode renders the result as the standard indented JSON document,
// trailing newline included. Encoding the same value always yields the
// same bytes: field order is struct order and the schema holds no
// maps.
func (r *Result) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("lab: encode result: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeResult parses and validates a standard result document.
// Unknown fields are rejected so schema drift fails loudly on both
// sides of the wire format.
func DecodeResult(data []byte) (*Result, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Result
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("lab: decode result: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
