package server

import (
	"context"

	"busprobe/internal/core/traffic"
	"busprobe/internal/probe"
	"busprobe/internal/server/stage"
)

// LocalAddr is the Shard address of an in-process shard.
const LocalAddr = "local"

// Shard is the coordinator's dispatch boundary: exactly what it
// dispatches to one region shard, whether that shard is an in-process
// *Backend or an independent process reached over the wire protocol
// (RemoteShard). Writes carry a context for cancellation and trace
// propagation; reads return an error so a dead shard degrades the
// merged view instead of wedging it.
//
// The contract that keeps the merged traffic map byte-identical across
// deployments: a trip forwarded to its home shard is processed exactly
// as a monolith would process it, and a Scatter call folds its
// observation group into this shard's estimator exactly once per
// idempotency key — a retried scatter (lost response, replayed
// log) returns the recorded outcome instead of folding again.
type Shard interface {
	// Addr names the shard's location: LocalAddr for an in-process
	// backend, the base URL for a remote shard process.
	Addr() string
	// ProcessTrip ingests one trip already routed to this shard.
	ProcessTrip(ctx context.Context, trip probe.Trip) (ProcessedTrip, error)
	// IngestBatch ingests a routed sub-batch behind this shard's
	// admission gate; a saturated shard sheds with ErrOverloaded.
	IngestBatch(ctx context.Context, trips []probe.Trip) []TripResult
	// Scatter folds one cross-shard observation group into this shard's
	// estimator, exactly once per key.
	Scatter(ctx context.Context, key string, obs []traffic.Observation) (stage.EstimateOutput, error)
	// Stats snapshots the shard's work counters. It is also the
	// readiness probe: a shard that answers is ready to take traffic.
	Stats(ctx context.Context) (Stats, error)
	// StageMetrics snapshots the shard's per-stage instrumentation.
	StageMetrics(ctx context.Context) ([]stage.Metrics, error)
	// Traffic returns the shard's current versioned estimate snapshot.
	// Version and Estimates are always populated; the per-segment delta
	// maps travel only on locally-published snapshots (a RemoteShard
	// rebuilds Version + Estimates from the shard's /v1/traffic and
	// leaves them nil — the coordinator diffs its own merged view). The
	// snapshot is immutable: callers must not modify its maps.
	Traffic(ctx context.Context) (*traffic.Snapshot, error)
	// Advance drives the shard's estimator clock.
	Advance(ctx context.Context, nowS float64) error
}

// localShard adapts an in-process *Backend to the Shard boundary. The
// adapter is free: reads cannot fail and contexts pass straight
// through, so an N-in-process-shard coordinator behaves exactly as it
// did before the boundary became an interface.
type localShard struct{ b *Backend }

var _ Shard = localShard{}

func (s localShard) Addr() string { return LocalAddr }

func (s localShard) ProcessTrip(ctx context.Context, trip probe.Trip) (ProcessedTrip, error) {
	return s.b.ProcessTrip(ctx, trip)
}

func (s localShard) IngestBatch(ctx context.Context, trips []probe.Trip) []TripResult {
	return s.b.IngestBatch(ctx, trips)
}

func (s localShard) Scatter(ctx context.Context, key string, obs []traffic.Observation) (stage.EstimateOutput, error) {
	return s.b.FoldScatter(ctx, key, obs)
}

func (s localShard) Stats(context.Context) (Stats, error) { return s.b.Stats(), nil }

func (s localShard) StageMetrics(context.Context) ([]stage.Metrics, error) {
	return s.b.StageMetrics(), nil
}

func (s localShard) Traffic(context.Context) (*traffic.Snapshot, error) {
	return s.b.TrafficSnapshot(), nil
}

func (s localShard) Advance(_ context.Context, nowS float64) error {
	s.b.Advance(nowS)
	return nil
}
