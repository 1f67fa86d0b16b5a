package lab

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// exemplarResult is a fully-populated result — every section present —
// so the golden file pins the complete wire surface of the schema.
func exemplarResult() *Result {
	r := &Result{
		Schema:      SchemaVersion,
		Suite:       "clean",
		Description: "fault-free singles vs monolith",
		Topology:    "monolith",
		Seed:        1,
		Scale:       "small",
		Pass:        true,
		Reasons:     []string{},
		Checks: []Check{
			{Name: "every offered trip delivered", Pass: true, Detail: "offered 116 delivered 116 duplicate 0 failed 0"},
			{Name: "traffic map byte-identical to reference", Pass: true},
		},
		Load: Load{
			Riders: 22, Days: 2,
			TripsOffered: 116, TripsDelivered: 116,
		},
		Latency: Latency{
			Count: 116, P50S: 0.00061, P95S: 0.0014, P99S: 0.0031, MeanS: 0.00072,
		},
		Throughput: Throughput{
			TripsPerS: 1350.5, RequestsPerS: 1350.5, WallS: 0.0859,
		},
		Equivalence: &Equivalence{
			Reference: "in-process serial replay", Segments: 214, ByteIdentical: true,
		},
		Memory: &Memory{
			BoundBytes: 268435456, MaxHeapDeltaBytes: 9437184, Samples: 20, Bounded: true,
		},
		Reads: &ReadStorm{
			Pollers: 4, Watchers: 2, PolledReads: 1800, NotModified: 240,
			WatchPolls: 90, ReadsPerS: 24000.5,
		},
		DurationS: 0.31,
	}
	return r
}

// TestResultGoldenFile pins the encoded schema byte for byte: struct
// field order is the wire order, so any reordering, renaming, or type
// change shows up as a golden diff instead of silently shifting the
// format consumers parse.
func TestResultGoldenFile(t *testing.T) {
	golden := filepath.Join("testdata", "result_golden.json")
	got, err := exemplarResult().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("encoded result drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestResultRoundTrip proves decode∘encode is the identity on bytes:
// the schema holds no maps and field order is fixed, so a re-encoded
// document is byte-identical.
func TestResultRoundTrip(t *testing.T) {
	first, err := exemplarResult().Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeResult(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := decoded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("round trip not byte-stable\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestEncodeDeterministic re-encodes the same value repeatedly and
// demands identical bytes every time.
func TestEncodeDeterministic(t *testing.T) {
	r := exemplarResult()
	first, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("encode %d differs from first", i)
		}
	}
}

// decodeResult parses and validates a standard result document the way
// a consumer of the artifacts must: unknown fields are rejected, so
// schema drift fails loudly on both sides of the wire format.
func decodeResult(data []byte) (*Result, error) {
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

// TestDecodeResultRejectsUnknownFields makes schema drift loud: a
// document with a field this build does not know is an error, not a
// silent drop.
func TestDecodeResultRejectsUnknownFields(t *testing.T) {
	data, err := exemplarResult().Encode()
	if err != nil {
		t.Fatal(err)
	}
	poisoned := strings.Replace(string(data), `"suite"`, `"surprise": 1, "suite"`, 1)
	if _, err := decodeResult([]byte(poisoned)); err == nil {
		t.Fatal("decoder accepted a document with an unknown field")
	}
}

// TestResultValidate covers the verdict-consistency rules.
func TestResultValidate(t *testing.T) {
	r := exemplarResult()
	if err := r.Validate(); err != nil {
		t.Fatalf("exemplar invalid: %v", err)
	}
	bad := *r
	bad.Schema = "busprobe-lab/0"
	if err := bad.Validate(); err == nil {
		t.Error("wrong schema accepted")
	}
	bad = *r
	bad.Reasons = []string{"leftover"}
	if err := bad.Validate(); err == nil {
		t.Error("passing result with reasons accepted")
	}
	bad = *r
	bad.Pass = false
	bad.Reasons = []string{}
	if err := bad.Validate(); err == nil {
		t.Error("failing result without reasons accepted")
	}
}

// TestResultCheckFoldsFailures exercises the check helper the
// scenarios build their verdicts with.
func TestResultCheckFoldsFailures(t *testing.T) {
	r := &Result{Schema: SchemaVersion, Suite: "t", Pass: true, Reasons: []string{}, Checks: []Check{}}
	r.check("a", true, "fine")
	if !r.Pass || len(r.Reasons) != 0 {
		t.Fatal("passing check flipped the verdict")
	}
	r.check("b", false, "broke")
	if r.Pass {
		t.Fatal("failing check did not flip the verdict")
	}
	if len(r.Reasons) != 1 || r.Reasons[0] != "b: broke" {
		t.Fatalf("reasons = %v", r.Reasons)
	}
	if len(r.Checks) != 2 {
		t.Fatalf("checks = %v", r.Checks)
	}
}
