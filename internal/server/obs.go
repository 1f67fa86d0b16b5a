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
// counted twice. Stage latency histograms and trace spans ride the one
// stage hook newBackend hands the pipeline.

// traceTrip opens one trip's trace: the returned context is guaranteed
// to carry a trace ID (a trip arriving without one gets its
// deterministic obs.TripTrace) and the returned time is the enclosing
// span's start on the observability clock. With observability off the
// context passes through untouched.
func (b *Backend) traceTrip(ctx context.Context, tripID string) (context.Context, time.Time) {
	if b.cfg.Obs == nil {
		return ctx, time.Time{}
	}
	return obs.EnsureTrip(ctx, tripID), b.cfg.Obs.Clock.Now()
}

// endTripSpan emits the "trip" span enclosing one ingested trip's run.
func (b *Backend) endTripSpan(ctx context.Context, start time.Time, tripID string) {
	if core := b.cfg.Obs; core != nil {
		core.Tracer.Emit(obs.TraceID(ctx), "trip", start, core.Clock.Now(),
			obs.Attr{Key: "trip", Value: tripID}, obs.Attr{Key: "shard", Value: b.obsShard})
	}
}

// registerObs plugs the backend into its observability core (cfg.Obs,
// non-nil) under the given shard label. It registers scrape-time
// collectors for the work counters and per-stage instrumentation,
// creates the per-stage latency histograms, and returns the pipeline's
// stage hook: cfg.StageHook, then the histogram, then the span.
// newBackend calls it once, before it builds the pipeline.
func (b *Backend) registerObs(shard string) stage.Hook {
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

	// The estimator's own size and work: retained windows are what
	// grows until a retention horizon compacts them, window folds are
	// the fold chain's unit of work (one Eq. 4 fusion each).
	reg.GaugeFunc("busprobe_estimator_windows",
		"Update windows retained by the traffic estimator across all segments.",
		func() float64 { return float64(b.est.Counts().Windows) }, sl)
	reg.CounterFunc("busprobe_estimator_window_folds_total",
		"Single-window folds run by the traffic estimator.",
		func() float64 { return float64(b.est.Counts().WindowFolds) }, sl)
	reg.CounterFunc("busprobe_estimator_late_dropped_total",
		"Reports that arrived after their window was compacted away.",
		func() float64 { return float64(b.est.Counts().LateDropped) }, sl)

	// One row of counters per /v1/pipeline row — the five stages, then
	// the admission gate's pseudo-stage — each read at scrape time from
	// the same StageMetrics snapshot /v1/pipeline serves.
	type stageObs struct {
		hist *obs.Histogram
		span string
	}
	byStage := make(map[string]stageObs, len(stage.Names))
	for i, name := range append(stage.Names[:], admissionStage) {
		stl := obs.Label{Name: "stage", Value: name}
		ctr := func(metric, help string, get func(stage.Metrics) int64) {
			reg.CounterFunc(metric, help, func() float64 { return float64(get(b.StageMetrics()[i])) }, sl, stl)
		}
		ctr("busprobe_stage_runs_total", "Completed runs per pipeline stage.",
			func(m stage.Metrics) int64 { return m.Runs })
		ctr("busprobe_stage_items_in_total", "Items offered to each pipeline stage.",
			func(m stage.Metrics) int64 { return m.ItemsIn })
		ctr("busprobe_stage_items_out_total", "Items surviving each pipeline stage.",
			func(m stage.Metrics) int64 { return m.ItemsOut })
		ctr("busprobe_stage_dropped_total", "Items discarded by each pipeline stage.",
			func(m stage.Metrics) int64 { return m.Dropped })
		if i < len(stage.Names) {
			byStage[name] = stageObs{
				hist: reg.Histogram("busprobe_stage_duration_seconds", "Per-run latency of each pipeline stage.",
					obs.LatencyBuckets, sl, stl),
				span: "stage." + name,
			}
		}
	}

	// The span boundaries are the hook's measured duration back from a
	// reading of the same clock the pipeline measured it on, so a trip's
	// match→cluster→map→estimate path is reconstructable per shard. The
	// span names and the attr slice are built once: Emit retains (never
	// mutates) the slice, so sharing one backing array across spans
	// keeps the hot path free of per-run allocations.
	prev := b.cfg.StageHook
	attrs := []obs.Attr{{Key: "shard", Value: shard}}
	return func(ctx context.Context, name string, in, out, dropped int, d time.Duration) {
		if prev != nil {
			prev(ctx, name, in, out, dropped, d)
		}
		st := byStage[name]
		st.hist.Observe(d.Seconds())
		if tr := obs.TraceID(ctx); tr != "" {
			end := core.Clock.Now()
			core.Tracer.Emit(tr, st.span, end.Add(-d), end, attrs...)
		}
	}
}
