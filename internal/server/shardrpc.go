package server

import (
	"context"
	"fmt"
	"net/http"

	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/region"
	"busprobe/internal/core/traffic"
	"busprobe/internal/probe"
	"busprobe/internal/server/stage"
	"busprobe/internal/transit"
)

// The shard wire protocol. A shard process is a server: its read side
// is the public API it mounts anyway — RemoteShard fetches /v1/stats
// (which doubles as the readiness probe), /v1/pipeline and the
// versioned /v1/traffic, so a coordinator polling an idle shard is
// answered 304 and its fan-in shows in the shard's busprobe_http_*
// series. The internal wire (shardRoutes) is only the four writes no
// rider makes:
//
//	POST /internal/v1/trip       ingest one routed trip
//	POST /internal/v1/trips      ingest a routed sub-batch behind the
//	                             shard's admission gate (rows in input
//	                             order)
//	POST /internal/v1/scatter    fold a cross-shard observation group,
//	                             exactly once per key
//	POST /internal/v1/advance    drive the estimator clock to the
//	                             watermark in the body (a bare number)
//
// One endpoint per Shard write, no per-request options. Bodies are
// JSON. encoding/json renders float64 with the shortest round-tripping
// representation, so estimates survive the hop bit-exactly and the
// coordinator's merged /v1/traffic stays byte-identical to a
// monolith's.

// shardTripJSON is one routed trip's outcome on the shard wire: the
// full ProcessedTrip (not just counts, so the coordinator's public
// upload response is byte-identical to a monolith's) plus, for a
// refused trip, its rejections code and message.
type shardTripJSON struct {
	Trip  ProcessedTrip `json:"trip"`
	Error string        `json:"error,omitempty"`
	Code  string        `json:"code,omitempty"`
}

// shardTripRow renders one trip outcome as a wire row.
func shardTripRow(res ProcessedTrip, err error) shardTripJSON {
	if err != nil {
		return shardTripJSON{Trip: res, Error: err.Error(), Code: classify(err).code}
	}
	return shardTripJSON{Trip: res}
}

// err rebuilds a refused row's error as the matching sentinel.
func (row shardTripJSON) err() error {
	if row.Code == "" {
		return nil
	}
	return rejected(row.Code, 0, row.Error)
}

// scatterRequestJSON is one cross-shard observation group under its
// idempotency key; the answer is the fold's stage.EstimateOutput.
type scatterRequestJSON struct {
	Key          string                `json:"key"`
	Observations []traffic.Observation `json:"observations"`
}

// NewShardBackend assembles the backend of one shard process: a full
// Backend over the shared databases, plus the scatter topology that
// sends observations owned by peer shards across the wire. addrs lists
// every shard process's base URL in shard order (including this one's
// own slot, which is never dialed — its groups fold locally). The
// partition is rebuilt deterministically from the databases, so every
// shard process and every coordinator derive the same ownership map
// without any coordination traffic.
func NewShardBackend(cfg Config, tdb *transit.DB, fpdb *fingerprint.DB, shardID int, addrs []string) (*Backend, error) {
	if shardID < 0 || shardID >= len(addrs) {
		return nil, fmt.Errorf("server: shard id %d outside %d shard addrs", shardID, len(addrs))
	}
	part, err := transit.PartitionRoutes(tdb, len(addrs), region.DefaultConfig().ZoneM)
	if err != nil {
		return nil, err
	}
	b, err := newBackend(cfg, tdb, fpdb, shardID)
	if err != nil {
		return nil, err
	}
	peers := make([]*RemoteShard, len(addrs))
	for i, addr := range addrs {
		if i == shardID {
			continue
		}
		peers[i] = NewRemoteShard(addr)
	}
	b.obsOwner = segmentOwner(part)
	b.obsScatter = func(ctx context.Context, owner int, key string, group []traffic.Observation) (stage.EstimateOutput, error) {
		return peers[owner].Scatter(ctx, key, group)
	}
	return b, nil
}

// shardRoutes is the internal wire, stated once. Both trip routes answer
// 200 with rows: a refusal rides its row's code, and any other status
// means the shard itself failed.
func shardRoutes(b *Backend) []route {
	return []route{
		{http.MethodPost, "/internal/v1/trip", func(w http.ResponseWriter, r *http.Request) {
			var trip probe.Trip
			if !decodeBody(w, r, maxUploadBytes, &trip, nil) {
				return
			}
			writeJSON(w, http.StatusOK, shardTripRow(b.ProcessTrip(r.Context(), trip)))
		}},
		{http.MethodPost, "/internal/v1/trips", func(w http.ResponseWriter, r *http.Request) {
			var trips []probe.Trip
			if !decodeBody(w, r, maxBatchUploadBytes, &trips, nil) {
				return
			}
			results := b.IngestBatch(r.Context(), trips)
			rows := make([]shardTripJSON, len(results))
			for i, res := range results {
				rows[i] = shardTripRow(res.Trip, res.Err)
			}
			writeJSON(w, http.StatusOK, rows)
		}},
		{http.MethodPost, "/internal/v1/scatter", func(w http.ResponseWriter, r *http.Request) {
			var req scatterRequestJSON
			if !decodeBody(w, r, maxUploadBytes, &req, nil) {
				return
			}
			out, err := b.FoldScatter(r.Context(), req.Key, req.Observations)
			if err != nil {
				// Durability failed before the fold; the home shard retries
				// under the same key.
				http.Error(w, "scatter not persisted: "+err.Error(), http.StatusInternalServerError)
				return
			}
			writeJSON(w, http.StatusOK, out)
		}},
		{http.MethodPost, "/internal/v1/advance", func(w http.ResponseWriter, r *http.Request) {
			var nowS float64
			if !decodeBody(w, r, maxUploadBytes, &nowS, nil) {
				return
			}
			b.Advance(nowS)
			w.WriteHeader(http.StatusNoContent)
		}},
	}
}

// NewShardHandler returns the HTTP surface of one shard process: the
// internal wire, plus the public API — every read for direct inspection
// and for the coordinator tier (/healthz, /metrics, /v1/traffic, ...),
// while every public write answers 421 Misdirected Request: a rider
// upload sent straight to a shard would bypass the coordinator's
// content-deterministic routing and could land a duplicate on a second
// dedup set.
func NewShardHandler(b *Backend, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	// The public surface mounts by prefix, not as a "/" catch-all: a
	// catch-all would also match a wrong-verb request to an internal
	// route below and turn its 405 into a 404.
	public := NewHandler(b, hc)
	for _, prefix := range []string{"/healthz", "/v1/", "/metrics", "/debug/pprof/"} {
		mux.Handle(prefix, public)
	}
	misdirected := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shard process: uploads go through the coordinator tier",
			http.StatusMisdirectedRequest)
	}
	for _, rt := range publicRoutes(b, nil) {
		if rt.method == http.MethodPost {
			mux.HandleFunc(rt.method+" "+rt.path, misdirected)
		}
	}
	for _, rt := range shardRoutes(b) {
		mux.HandleFunc(rt.method+" "+rt.path, func(w http.ResponseWriter, r *http.Request) {
			rt.handler(w, traceCtx(r))
		})
	}
	return mux
}
