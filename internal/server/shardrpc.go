package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/region"
	"busprobe/internal/core/traffic"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/server/stage"
	"busprobe/internal/transit"
)

// The shard wire protocol. A shard process mounts these endpoints next
// to the public read API; the coordinator tier dispatches to them
// through RemoteShard:
//
//	POST /internal/v1/trip            ingest one routed trip
//	POST /internal/v1/trips           ingest a routed sub-batch behind
//	                                  the shard's admission gate
//	POST /internal/v1/scatter         fold a cross-shard observation
//	                                  group, exactly once per key
//	POST /internal/v1/advance         drive the estimator clock
//	GET  /internal/v1/traffic         versioned segment→estimate snapshot
//	                                  ({version, estimates}; answers with
//	                                  ETag + X-Busprobe-Traffic-Version and
//	                                  304 on If-None-Match, so a coordinator
//	                                  polling an idle shard moves no body)
//	GET  /internal/v1/stats           work counters
//	GET  /internal/v1/pipeline        per-stage instrumentation
//	GET  /internal/v1/ready           readiness probe
//
// Eight endpoints, one per Shard method that crosses the wire, and no
// per-request options. Bodies are JSON. encoding/json renders float64
// with the shortest round-tripping representation, so estimates survive
// the hop bit-exactly and the coordinator's merged /v1/traffic stays
// byte-identical to a monolith's.

// shardTripJSON is one routed trip's outcome on the shard wire: the
// full ProcessedTrip (not just counts, so the coordinator's public
// upload response is byte-identical to a monolith's) plus the
// machine-readable rejection class of uploadCode.
type shardTripJSON struct {
	Trip  ProcessedTrip `json:"trip"`
	Error string        `json:"error,omitempty"`
	Code  string        `json:"code,omitempty"`
}

// shardBatchJSON carries a sub-batch's outcomes in input order.
type shardBatchJSON struct {
	Results []shardTripJSON `json:"results"`
}

// scatterRequestJSON is one cross-shard observation group under its
// idempotency key.
type scatterRequestJSON struct {
	Key          string                `json:"key"`
	Observations []traffic.Observation `json:"observations"`
}

// scatterResponseJSON reports the group's fold outcome.
type scatterResponseJSON struct {
	Folded    int `json:"folded"`
	Discarded int `json:"discarded"`
}

// advanceRequestJSON drives the shard's estimator watermark.
type advanceRequestJSON struct {
	NowS float64 `json:"nowS"`
}

// shardTrafficJSON is one shard's versioned snapshot on the wire. Only
// the version and the estimate map travel: the coordinator diffs its
// own merged view to maintain delta state, so shipping the shard-local
// change maps would be dead weight on every fan-in.
type shardTrafficJSON struct {
	Version   uint64                              `json:"version"`
	Estimates map[road.SegmentID]traffic.Estimate `json:"estimates"`
}

// shardReadyJSON answers the readiness probe.
type shardReadyJSON struct {
	Ready bool `json:"ready"`
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

// NewShardHandler returns the HTTP surface of one shard process: the
// internal wire protocol above, plus the public read API for direct
// inspection (/healthz, /metrics, /v1/traffic, ...). The public write
// endpoints answer 421 Misdirected Request — a rider upload sent
// straight to a shard would bypass the coordinator's
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
	mux.HandleFunc("POST /v1/trips", misdirected)
	mux.HandleFunc("POST /v1/trips/batch", misdirected)

	mux.HandleFunc("POST /internal/v1/trip", func(w http.ResponseWriter, r *http.Request) {
		r = traceCtx(r)
		var trip probe.Trip
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
		if err := dec.Decode(&trip); err != nil {
			writeJSON(w, http.StatusBadRequest, shardTripJSON{Error: "malformed JSON: " + err.Error(), Code: "error"})
			return
		}
		res, err := b.ProcessTrip(r.Context(), trip)
		if err != nil {
			writeJSON(w, uploadStatus(err), shardTripJSON{Trip: res, Error: err.Error(), Code: uploadCode(err)})
			return
		}
		writeJSON(w, http.StatusAccepted, shardTripJSON{Trip: res})
	})

	mux.HandleFunc("POST /internal/v1/trips", func(w http.ResponseWriter, r *http.Request) {
		r = traceCtx(r)
		var trips []probe.Trip
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchUploadBytes))
		if err := dec.Decode(&trips); err != nil {
			http.Error(w, "malformed JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		results := b.IngestBatch(r.Context(), trips)
		out := shardBatchJSON{Results: make([]shardTripJSON, len(results))}
		for i, res := range results {
			row := shardTripJSON{Trip: res.Trip}
			if res.Err != nil {
				row.Error = res.Err.Error()
				row.Code = uploadCode(res.Err)
			}
			out.Results[i] = row
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("POST /internal/v1/scatter", func(w http.ResponseWriter, r *http.Request) {
		r = traceCtx(r)
		var req scatterRequestJSON
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
		if err := dec.Decode(&req); err != nil {
			http.Error(w, "malformed JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		out, err := b.FoldScatter(r.Context(), req.Key, req.Observations)
		if err != nil {
			// Durability failed before the fold; the home shard retries
			// under the same key.
			http.Error(w, "scatter not persisted: "+err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, scatterResponseJSON{Folded: out.Folded, Discarded: out.Discarded})
	})

	mux.HandleFunc("POST /internal/v1/advance", func(w http.ResponseWriter, r *http.Request) {
		var req advanceRequestJSON
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
		if err := dec.Decode(&req); err != nil {
			http.Error(w, "malformed JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		b.Advance(req.NowS)
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /internal/v1/traffic", func(w http.ResponseWriter, r *http.Request) {
		snap := b.TrafficSnapshot()
		if trafficHeaders(w, r, snap.Version) {
			return
		}
		writeJSON(w, http.StatusOK, shardTrafficJSON{Version: snap.Version, Estimates: snap.Estimates})
	})

	mux.HandleFunc("GET /internal/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, b.Stats())
	})

	mux.HandleFunc("GET /internal/v1/pipeline", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, b.StageMetrics())
	})

	mux.HandleFunc("GET /internal/v1/ready", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, shardReadyJSON{Ready: true})
	})

	return mux
}
