package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"busprobe/internal/clock"
)

var traceEpoch = time.Date(2015, 6, 29, 0, 0, 0, 0, time.UTC)

func TestTracerSpanSequence(t *testing.T) {
	tr := NewTracer(clock.NewFake(traceEpoch, time.Millisecond), 16)
	a, b := tr.Now(), tr.Now()
	tr.Emit("trip-1", "match", a, b)
	tr.Emit("trip-1", "cluster", a, b)
	tr.Emit("trip-2", "match", a, b)
	tr.Emit("trip-1", "map", a, b)

	spans := tr.Spans("trip-1")
	if len(spans) != 3 {
		t.Fatalf("trip-1 spans = %d, want 3", len(spans))
	}
	for i, sp := range spans {
		if sp.Span != i {
			t.Errorf("span %d has index %d; indices must count emission order per trace", i, sp.Span)
		}
	}
	if got := []string{spans[0].Name, spans[1].Name, spans[2].Name}; got[0] != "match" || got[1] != "cluster" || got[2] != "map" {
		t.Errorf("span order = %v", got)
	}
	if sp := tr.Spans("trip-2"); len(sp) != 1 || sp[0].Span != 0 {
		t.Errorf("trip-2 spans = %+v", sp)
	}
}

func TestTracerRingRotation(t *testing.T) {
	tr := NewTracer(clock.NewFake(traceEpoch, time.Millisecond), 4)
	a := tr.Now()
	for i := 0; i < 6; i++ {
		tr.Emit("t", "op", a, a.Add(time.Duration(i)))
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want capacity 4", len(spans))
	}
	// Oldest-first: the two earliest spans rotated out.
	if spans[0].Span != 2 || spans[3].Span != 5 {
		t.Errorf("ring order = [%d..%d], want [2..5]", spans[0].Span, spans[3].Span)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit("t", "op", time.Time{}, time.Time{})
	if tr.Snapshot() != nil || tr.Spans("t") != nil {
		t.Error("nil tracer must be inert")
	}
}

func TestTracerByteStableUnderFakeClock(t *testing.T) {
	render := func() []byte {
		tr := NewTracer(clock.NewFake(traceEpoch, time.Millisecond), 16)
		for i := 0; i < 3; i++ {
			start := tr.Now()
			tr.Emit("trip-x", "stage", start, tr.Now())
		}
		b, err := json.Marshal(tr.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(render(), render()) {
		t.Error("identical emission sequences under a Fake clock rendered different bytes")
	}
}

func TestContextHelpers(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Error("fresh context carries a trace")
	}
	ctx2 := WithTrace(ctx, "abc")
	if TraceID(ctx2) != "abc" {
		t.Errorf("TraceID = %q", TraceID(ctx2))
	}
	if WithTrace(ctx, "") != ctx {
		t.Error("empty trace must leave ctx untouched")
	}

	// EnsureTrip derives the deterministic trip trace only when absent.
	if got := TraceID(EnsureTrip(ctx, "T1")); got != TripTrace("T1") {
		t.Errorf("EnsureTrip derived %q", got)
	}
	if got := TraceID(EnsureTrip(ctx2, "T1")); got != "abc" {
		t.Errorf("EnsureTrip overrode caller trace with %q", got)
	}
	if TraceID(nil) != "" {
		t.Error("nil ctx must report no trace")
	}
}
