// Package obs is the unified observability core of the serving stack:
// a lock-disciplined metrics registry (counters, gauges, fixed-bucket
// latency histograms) with Prometheus text-format exposition, and a
// deterministic trip-scoped tracer whose span IDs and timestamps are
// pure functions of the ingest stream under an injected clock.Clock.
//
// The package is stdlib-only and rides on context.Context: a trace ID
// enters the system once (the X-Busprobe-Trace header, or derived from
// the trip ID at ingest), travels in the request context through every
// pipeline stage, and each stage run emits a span through the stage
// hook — so a single trip's match→cluster→map→estimate path is
// reconstructable from the trace log across shards.
//
// Lock discipline matches the repo-wide busprobe-vet rules: instrument
// hot paths are pure atomics, registry and tracer mutexes guard only
// map/slice state, and no lock is ever held across a channel operation
// or a user callback. All timestamps come from an injected clock.Clock
// so the nowallclock analyzer stays clean and tests pin exact output.
package obs

import (
	"busprobe/internal/clock"
)

// Core bundles the observability surfaces a deployment shares: one
// metrics registry, one tracer, one clock. A nil *Core disables
// observability at zero cost — every consumer treats nil as "off".
type Core struct {
	Registry *Registry
	Tracer   *Tracer
	Clock    clock.Clock
}

// NewCore assembles an enabled observability core on the given clock.
// A nil clk uses the wall clock (production); tests pass a clock.Fake
// so metrics and spans are byte-reproducible.
func NewCore(clk clock.Clock) *Core {
	if clk == nil {
		clk = clock.Wall{}
	}
	return &Core{
		Registry: NewRegistry(),
		Tracer:   NewTracer(clk, DefaultTraceCapacity),
		Clock:    clk,
	}
}
