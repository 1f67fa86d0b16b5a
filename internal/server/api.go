package server

import (
	"context"

	"busprobe/internal/core/traffic"
	"busprobe/internal/probe"
	"busprobe/internal/server/stage"
	"busprobe/internal/transit"
)

// API is the kernel of the serving surface the HTTP layer (and
// in-process callers) talk to: ingest, the one published product — the
// versioned traffic snapshot — and the operational views. A monolithic
// Backend and a sharded Coordinator both implement it. Everything riders
// read beyond the raw map (region index, route digests, ETAs, one
// segment, a mutable copy) is derived from (Transit, TrafficSnapshot) by
// the package-level functions in extensions.go and the snapshot's own
// methods, so a new derived read costs one function, not an interface
// method plus an implementation per topology.
type API interface {
	// ProcessTrip ingests one trip (validate, dedup, log append,
	// pipeline). The context bounds admission and carries the trace.
	ProcessTrip(ctx context.Context, trip probe.Trip) (ProcessedTrip, error)
	// IngestBatch ingests a batch behind the admission gate; shed trips
	// fail with ErrOverloaded.
	IngestBatch(ctx context.Context, trips []probe.Trip) []TripResult
	// TrafficSnapshot returns the current immutable, versioned traffic
	// snapshot. Lock-free on a Backend; a Coordinator serves its cached
	// merge, re-merging only when a shard's version moved. Callers must
	// not mutate the snapshot's maps (CloneEstimates gives a copy they
	// own), and a read that consults more than one segment must load the
	// snapshot once and keep it, or it can mix versions.
	TrafficSnapshot() *traffic.Snapshot
	// Stats returns the aggregated work counters.
	Stats() Stats
	// StageMetrics returns the per-stage instrumentation, aggregated
	// across shards without double counting.
	StageMetrics() []stage.Metrics
	// ShardStatuses reports per-shard footprint and counters (one row
	// for a monolithic backend).
	ShardStatuses() []ShardStatus
	// Advance drives the estimator clocks.
	Advance(nowS float64)
	// Config returns the serving configuration.
	Config() Config
	// Transit returns the transit database the derived reads resolve
	// routes and road geometry against.
	Transit() *transit.DB
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
