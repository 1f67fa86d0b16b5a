package obs

import (
	"context"
	"sync"
	"time"

	"busprobe/internal/clock"
)

// TraceHeader is the HTTP header carrying a request's trace ID between
// the client and the backend. The server echoes it into the request
// context; the client injects it from the caller's context.
const TraceHeader = "X-Busprobe-Trace"

// DefaultTraceCapacity bounds the tracer's in-memory span ring. A trip
// emits about six spans, so the default retains the last ~170 trips —
// enough to reconstruct any recent request — while keeping the ring's
// cache footprint (~100 KiB) small enough not to crowd the matcher's
// working set on the ingest path.
const DefaultTraceCapacity = 1024

// seqCap bounds the per-trace span-sequence map; past it the map is
// reset so a long-lived tracer cannot grow without bound (span indices
// then restart per trace, which only matters for traces still in
// flight across the reset).
const seqCap = 16384

// Attr is one key/value annotation on a span. Values are strings so
// spans marshal deterministically.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one completed operation of a trace. Span indices count from
// zero within their trace in emission order; a single trip's stages run
// sequentially, so its span sequence is deterministic.
type Span struct {
	Trace string    `json:"trace"`
	Span  int       `json:"span"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Tracer collects completed spans into a bounded in-memory ring.
// Timestamps come from the injected clock, so tests running a
// clock.Fake get byte-stable spans. Safe for concurrent use; the mutex
// guards only the ring and sequence map — never a channel operation or
// a user callback.
type Tracer struct {
	clk clock.Clock

	mu   sync.Mutex
	seq  map[string]int //lint:guardedby mu
	ring []Span         //lint:guardedby mu
	next int            //lint:guardedby mu ring write cursor
	full bool           //lint:guardedby mu
}

// NewTracer returns a tracer holding up to capacity spans (<= 0 uses
// DefaultTraceCapacity) and timestamping with clk (nil = wall clock).
func NewTracer(clk clock.Clock, capacity int) *Tracer {
	if clk == nil {
		clk = clock.Wall{}
	}
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		clk:  clk,
		seq:  make(map[string]int),
		ring: make([]Span, capacity),
	}
}

// Now reads the tracer's clock; span boundaries should come from here
// so every span of a deployment shares one time base.
func (t *Tracer) Now() time.Time { return t.clk.Now() }

// Emit records one completed span. Nil-safe: a nil tracer drops it.
func (t *Tracer) Emit(trace, name string, start, end time.Time, attrs ...Attr) {
	if t == nil || trace == "" {
		return
	}
	t.mu.Lock()
	if len(t.seq) >= seqCap {
		t.seq = make(map[string]int)
	}
	idx := t.seq[trace]
	t.seq[trace] = idx + 1
	sp := Span{Trace: trace, Span: idx, Name: name, Start: start, End: end, Attrs: attrs}
	t.ring[t.next] = sp
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// snapshotLocked copies the ring oldest-first.
func (t *Tracer) snapshotLocked() []Span {
	if !t.full {
		out := make([]Span, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// Spans returns the retained spans of one trace, oldest first — the
// reconstruction of that request's path through the pipeline.
func (t *Tracer) Spans(trace string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, sp := range t.snapshotLocked() {
		if sp.Trace == trace {
			out = append(out, sp)
		}
	}
	return out
}

// ctxKey keys the trace ID in a context.
type ctxKey struct{}

// WithTrace returns ctx carrying the given trace ID. An empty ID
// returns ctx unchanged.
func WithTrace(ctx context.Context, trace string) context.Context {
	if trace == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, trace)
}

// TraceID extracts the trace ID from ctx ("" if none).
func TraceID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if v, ok := ctx.Value(ctxKey{}).(string); ok {
		return v
	}
	return ""
}

// TripTrace derives the deterministic trace ID of a trip: uploads that
// arrive without a caller-provided trace are still traceable, and the
// same trip always maps to the same trace across replays and shards.
func TripTrace(tripID string) string { return "trip-" + tripID }

// EnsureTrip returns ctx guaranteed to carry a trace ID, deriving the
// trip's deterministic one when the caller supplied none.
func EnsureTrip(ctx context.Context, tripID string) context.Context {
	if TraceID(ctx) != "" {
		return ctx
	}
	return WithTrace(ctx, TripTrace(tripID))
}
