package server

import (
	"context"
	"time"

	"busprobe/internal/obs"
	"busprobe/internal/server/stage"
)

// This file wires the backend into the unified observability core
// (internal/obs): existing atomically-maintained counters — backend
// stats, per-stage instrumentation, the admission pseudo-stage — are
// projected into the metrics registry as scrape-time collectors, so
// /v1/stats and /v1/pipeline remain the source of truth and nothing is
// counted twice. Stage latency histograms and trace spans ride the
// stage hook, chained behind any user-installed hook.

// startSpan marks a span start on the observability clock; the zero
// time when observability is off.
func (b *Backend) startSpan() time.Time {
	if b.cfg.Obs == nil {
		return time.Time{}
	}
	return b.cfg.Obs.Clock.Now()
}

// endSpan emits one completed span for the traced request, if any.
func (b *Backend) endSpan(ctx context.Context, start time.Time, name string, attrs ...obs.Attr) {
	if b.cfg.Obs == nil {
		return
	}
	tr := obs.TraceID(ctx)
	if tr == "" {
		return
	}
	attrs = append(attrs, obs.Attr{Key: "shard", Value: b.obsShard})
	b.cfg.Obs.Tracer.Emit(tr, name, start, b.cfg.Obs.Clock.Now(), attrs...)
}

// registerObs plugs the backend into its observability core (cfg.Obs,
// non-nil) under the given shard label. It registers scrape-time
// collectors for the work counters and per-stage instrumentation,
// creates the per-stage latency histograms, and chains span emission
// onto the stage hook. newBackend calls it once, before any ingestion.
func (b *Backend) registerObs(shard string) {
	core := b.cfg.Obs
	b.obsShard = shard
	reg := core.Registry
	sl := obs.Label{Name: "shard", Value: shard}

	statCtr := func(name, help string, get func(Stats) int) {
		reg.CounterFunc(name, help, func() float64 { return float64(get(b.Stats())) }, sl)
	}
	statCtr("busprobe_trips_received_total", "Trips offered to the pipeline, accepted or not.",
		func(s Stats) int { return s.TripsReceived })
	statCtr("busprobe_trips_rejected_total", "Trips failing structural validation.",
		func(s Stats) int { return s.TripsRejected })
	statCtr("busprobe_trips_duplicate_total", "Re-uploads absorbed by the dedup set.",
		func(s Stats) int { return s.DuplicateTrips })
	statCtr("busprobe_trips_shed_total", "Trips refused by the batch admission gate.",
		func(s Stats) int { return s.TripsShed })
	statCtr("busprobe_samples_received_total", "Cellular samples carried by received trips.",
		func(s Stats) int { return s.SamplesReceived })
	statCtr("busprobe_samples_matched_total", "Samples clearing the γ matching filter.",
		func(s Stats) int { return s.SamplesMatched })
	statCtr("busprobe_visits_mapped_total", "Stop visits resolved by trip mapping.",
		func(s Stats) int { return s.VisitsMapped })
	statCtr("busprobe_observations_total", "Leg observations folded into the estimator.",
		func(s Stats) int { return s.Observations })

	if b.gate != nil {
		reg.GaugeFunc("busprobe_inflight_batches",
			"Batch ingests currently holding an admission slot.",
			func() float64 { return float64(len(b.gate)) }, sl)
	}

	reg.GaugeFunc("busprobe_traffic_snapshot_version",
		"Published traffic-snapshot version (monotone per process).",
		func() float64 { return float64(b.est.View().Version) }, sl)
	// Snapshot freshness is reported in the pipeline's own timeline —
	// the latest fold timestamp in the published map — rather than as a
	// wall-clock age, so scrapes of a quiescent backend stay
	// byte-stable under the deterministic test clock. An operator's
	// alert on staleness compares this watermark against the ingest
	// feed's current time.
	reg.GaugeFunc("busprobe_traffic_snapshot_updated_seconds",
		"Latest estimate-update timestamp (campaign seconds) in the published traffic snapshot.",
		func() float64 {
			var latest float64
			for _, est := range b.est.View().Estimates {
				if est.UpdatedS > latest {
					latest = est.UpdatedS
				}
			}
			return latest
		}, sl)

	const (
		runsName    = "busprobe_stage_runs_total"
		runsHelp    = "Completed runs per pipeline stage."
		inName      = "busprobe_stage_items_in_total"
		inHelp      = "Items offered to each pipeline stage."
		outName     = "busprobe_stage_items_out_total"
		outHelp     = "Items surviving each pipeline stage."
		droppedName = "busprobe_stage_dropped_total"
		droppedHelp = "Items discarded by each pipeline stage."
		durName     = "busprobe_stage_duration_seconds"
		durHelp     = "Per-run latency of each pipeline stage."
	)
	hists := make(map[string]*obs.Histogram, 8)
	for _, st := range b.pipe.Stages() {
		st := st
		stl := obs.Label{Name: "stage", Value: st.Name()}
		reg.CounterFunc(runsName, runsHelp,
			func() float64 { return float64(st.Metrics().Runs) }, sl, stl)
		reg.CounterFunc(inName, inHelp,
			func() float64 { return float64(st.Metrics().ItemsIn) }, sl, stl)
		reg.CounterFunc(outName, outHelp,
			func() float64 { return float64(st.Metrics().ItemsOut) }, sl, stl)
		reg.CounterFunc(droppedName, droppedHelp,
			func() float64 { return float64(st.Metrics().Dropped) }, sl, stl)
		hists[st.Name()] = reg.Histogram(durName, durHelp, obs.LatencyBuckets, sl, stl)
	}
	// The admission gate reports as the same pseudo-stage /v1/pipeline
	// appends, read under the same lock that maintains it.
	admSnap := func(get func(stage.Metrics) int64) func() float64 {
		return func() float64 {
			b.statsMu.Lock()
			m := b.admission
			b.statsMu.Unlock()
			return float64(get(m))
		}
	}
	adml := obs.Label{Name: "stage", Value: "admission"}
	reg.CounterFunc(runsName, runsHelp, admSnap(func(m stage.Metrics) int64 { return m.Runs }), sl, adml)
	reg.CounterFunc(inName, inHelp, admSnap(func(m stage.Metrics) int64 { return m.ItemsIn }), sl, adml)
	reg.CounterFunc(outName, outHelp, admSnap(func(m stage.Metrics) int64 { return m.ItemsOut }), sl, adml)
	reg.CounterFunc(droppedName, droppedHelp, admSnap(func(m stage.Metrics) int64 { return m.Dropped }), sl, adml)

	// Chain histogram observation and span emission behind whatever
	// hook the configuration installed. Span boundaries are derived
	// from the hook's measured duration on the core clock, so a trip's
	// match→cluster→map→estimate path is reconstructable per shard.
	for _, st := range b.pipe.Stages() {
		prev := st.CurrentHook()
		hist := hists[st.Name()]
		// Hoisted out of the hook: the span name and attr slice are
		// per-stage constants, and Emit retains (never mutates) the
		// slice, so sharing one backing array across spans keeps the
		// hot path free of per-run allocations.
		spanName := "stage." + st.Name()
		attrs := []obs.Attr{{Key: "shard", Value: shard}}
		st.SetHook(func(ctx context.Context, name string, in, out, dropped int, d time.Duration) {
			if prev != nil {
				prev(ctx, name, in, out, dropped, d)
			}
			hist.Observe(d.Seconds())
			if tr := obs.TraceID(ctx); tr != "" {
				end := core.Clock.Now()
				core.Tracer.Emit(tr, spanName, end.Add(-d), end, attrs...)
			}
		})
	}
}
