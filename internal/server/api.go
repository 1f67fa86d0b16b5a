package server

import (
	"context"

	"busprobe/internal/core/arrival"
	"busprobe/internal/core/region"
	"busprobe/internal/core/traffic"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/server/stage"
	"busprobe/internal/transit"
)

// API is the serving surface the HTTP layer (and in-process callers)
// talk to: either a monolithic Backend or a sharded Coordinator. Writes
// route through ProcessTrip / IngestBatch; reads are merged views that a
// Coordinator fans in across its shards.
type API interface {
	// ProcessTrip ingests one trip (validate, dedup, log append,
	// pipeline). The context bounds admission and carries the trace.
	ProcessTrip(ctx context.Context, trip probe.Trip) (ProcessedTrip, error)
	// IngestBatch ingests a batch behind the admission gate; shed trips
	// fail with ErrOverloaded.
	IngestBatch(ctx context.Context, trips []probe.Trip) []TripResult
	// Stats returns the aggregated work counters.
	Stats() Stats
	// StageMetrics returns the per-stage instrumentation, aggregated
	// across shards without double counting.
	StageMetrics() []stage.Metrics
	// Traffic returns the merged traffic map as a mutable copy the
	// caller owns; mutating it never touches served state.
	Traffic() map[road.SegmentID]traffic.Estimate
	// TrafficSnapshot returns the current immutable, versioned traffic
	// snapshot. Lock-free on a Backend; a Coordinator serves its cached
	// merge, re-merging only when a shard's version moved. Callers must
	// not mutate the snapshot's maps.
	TrafficSnapshot() *traffic.Snapshot
	// TrafficSegment returns one segment's estimate, if any.
	TrafficSegment(sid road.SegmentID) (traffic.Estimate, bool)
	// Advance drives the estimator clocks.
	Advance(nowS float64)
	// Config returns the serving configuration.
	Config() Config
	// RegionModel infers the §VI zone model over the merged snapshot.
	RegionModel() (*region.Model, error)
	// RouteStatuses digests the merged map into per-route travel times.
	RouteStatuses(departS float64) ([]RouteStatus, error)
	// PredictArrivals forecasts downstream ETAs from the merged map.
	PredictArrivals(routeID transit.RouteID, fromIdx int, departS float64) ([]arrival.Prediction, error)
	// ShardStatuses reports per-shard footprint and counters (one row
	// for a monolithic backend).
	ShardStatuses() []ShardStatus
}

// ShardStatus is one shard's partition footprint, topology, health, and
// work counters — the /v1/shards observability row. Addr is LocalAddr
// for an in-process shard and the shard process's base URL otherwise;
// LastProbe carries the outcome of the coordinator's most recent probe
// or fan-out call against the shard ("ok", "unprobed", or the error).
type ShardStatus struct {
	Shard     int    `json:"shard"`
	Addr      string `json:"addr"`
	Remote    bool   `json:"remote"`
	Healthy   bool   `json:"healthy"`
	LastProbe string `json:"lastProbe"`
	Routes    int    `json:"routes"`
	Stops     int    `json:"stops"`
	Segments  int    `json:"segments"`
	Stats     Stats  `json:"stats"`
}

var (
	_ API = (*Backend)(nil)
	_ API = (*Coordinator)(nil)
)
