package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"busprobe/internal/core/traffic"
	"busprobe/internal/obs"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/transit"
)

// SegmentEstimateJSON is one row of the traffic-map API response.
type SegmentEstimateJSON struct {
	Segment  int     `json:"segment"`
	SpeedKmh float64 `json:"speedKmh"`
	Var      float64 `json:"var"`
	Reports  int     `json:"reports"`
	UpdatedS float64 `json:"updatedS"`
	Level    string  `json:"level"`
}

// TrafficVersionHeader carries the snapshot version every traffic read
// answers with, public and internal alike.
const TrafficVersionHeader = "X-Busprobe-Traffic-Version"

// trafficETag renders a snapshot version as the strong entity tag the
// traffic endpoints use for If-None-Match revalidation.
func trafficETag(version uint64) string {
	return `"v` + strconv.FormatUint(version, 10) + `"`
}

// etagMatch reports whether an If-None-Match header value names the
// entity tag (alone, or in a comma-separated list, or as "*"). The
// comparison is weak, as RFC 9110 §13.1.2 requires for If-None-Match:
// W/"v12" — what a compressing proxy makes of our strong tag — still
// names version 12.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}

// trafficHeaders stamps a traffic response with its snapshot version
// and ETag, answering true when the client's If-None-Match already
// names this version and a 304 was written instead of a body.
func trafficHeaders(w http.ResponseWriter, r *http.Request, version uint64) bool {
	etag := trafficETag(version)
	w.Header().Set(TrafficVersionHeader, strconv.FormatUint(version, 10))
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// TrafficWatchJSON is the /v1/traffic/watch response: the delta between
// the client's version and the served snapshot. A client applying
// Changed and Removed to its since-version map holds exactly the map a
// fresh GET /v1/traffic would return at Version.
type TrafficWatchJSON struct {
	// Version is the snapshot version the delta brings the client to.
	Version uint64 `json:"version"`
	// Since echoes the effective base version (0 after a resync).
	Since uint64 `json:"since"`
	// Resync is set when the requested since version is ahead of the
	// served snapshot (a restarted server); the delta is the full map
	// from version 0 and the client must drop its local state first.
	Resync bool `json:"resync,omitempty"`
	// Changed lists the segments whose estimates changed after Since,
	// ascending by segment.
	Changed []SegmentEstimateJSON `json:"changed"`
	// Removed lists the segments that left the map after Since,
	// ascending (a shard dropping out of a coordinator's merged view).
	Removed []int `json:"removed,omitempty"`
}

// UploadResponseJSON acknowledges a trip upload. Code carries the
// machine-readable rejection class (a rejections code, or empty) so
// batch clients can classify per-row failures without string-matching
// Error.
type UploadResponseJSON struct {
	Accepted     bool   `json:"accepted"`
	TripID       string `json:"tripId"`
	Visits       int    `json:"visits"`
	Observations int    `json:"observations"`
	Error        string `json:"error,omitempty"`
	Code         string `json:"code,omitempty"`
}

// BatchUploadResponseJSON acknowledges a batched trip upload with one
// row per submitted trip, in input order.
type BatchUploadResponseJSON struct {
	Accepted int                  `json:"accepted"`
	Rejected int                  `json:"rejected"`
	Results  []UploadResponseJSON `json:"results,omitempty"`
	Error    string               `json:"error,omitempty"`
}

// maxUploadBytes bounds one trip upload (a day-long trip is ~100 KiB).
const maxUploadBytes = 4 << 20

// maxBatchUploadBytes bounds one batched upload.
const maxBatchUploadBytes = 64 << 20

// rejection is one class of refused upload as it crosses a wire: the
// sentinel in-process callers match with errors.Is, the code a response
// row carries, and the HTTP status a single upload answers with.
type rejection struct {
	err    error
	code   string
	status int
}

// rejections is the one table both directions read: servers classify an
// error into (code, status) with classify, clients rebuild the sentinel
// from either with rejected — so a remote rejection is indistinguishable
// from an in-process one, and the two directions cannot disagree.
var rejections = []rejection{
	{ErrDuplicateTrip, "duplicate", http.StatusConflict},
	{ErrInvalidTrip, "invalid", http.StatusBadRequest},
	{ErrOverloaded, "overloaded", http.StatusTooManyRequests},
	{ErrShardUnavailable, "unavailable", http.StatusBadGateway},
}

// classify finds an error's rejection class; anything outside the table
// is an unclassified "error" answered 422.
func classify(err error) rejection {
	for _, rej := range rejections {
		if errors.Is(err, rej.err) {
			return rej
		}
	}
	return rejection{err, "error", http.StatusUnprocessableEntity}
}

// rejected rebuilds the error a peer reported, by row code (batch rows,
// the shard wire) or by HTTP status (a single upload) — callers pass the
// one they hold and a zero for the other. It is only called for a
// refused upload, so a class outside the table is still an error, just
// an unclassified one.
func rejected(code string, status int, msg string) error {
	for _, rej := range rejections {
		if rej.code == code || rej.status == status {
			return fmt.Errorf("upload rejected: %s: %w", msg, rej.err)
		}
	}
	return fmt.Errorf("server: upload rejected: %s", msg)
}

// uploadRow renders one trip outcome as a response row.
func uploadRow(tripID string, res ProcessedTrip, err error) UploadResponseJSON {
	if err != nil {
		return UploadResponseJSON{TripID: tripID, Error: err.Error(), Code: classify(err).code}
	}
	return UploadResponseJSON{
		Accepted:     true,
		TripID:       res.TripID,
		Visits:       len(res.Visits),
		Observations: res.Observations,
	}
}

// Handler returns the serving HTTP API (publicRoutes) over a monolithic
// Backend or a sharded Coordinator — the responses are identical either
// way: both publish the same traffic snapshot (the coordinator's fans in
// and merges deterministically), and every read below /v1/traffic is
// derived from one load of that snapshot by code that does not know
// which it is talking to.
func Handler(b API) http.Handler { return NewHandler(b, HandlerConfig{}) }

// HandlerConfig is what the HTTP edge adds around the API: the
// per-request budget and the observability surfaces.
type HandlerConfig struct {
	// RequestTimeoutS bounds each /v1 request's handling time; slow
	// requests get 503, and a traffic watch waits at most half of it.
	// 0 disables the per-request timeout.
	RequestTimeoutS float64
	// Obs, when non-nil, mounts the Prometheus exposition at
	// GET /metrics and wraps the API in request counting + latency
	// histograms (busprobe_http_*).
	Obs *obs.Core
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// NewHandler returns the serving API plus the configured observability
// endpoints. The per-request timeout wraps only the /v1 surface:
// /metrics scrapes and pprof profiles have their own lifecycles (a
// 30-second CPU profile is not a stuck request).
func NewHandler(b API, hc HandlerConfig) http.Handler {
	api := apiMux(b, hc)
	var handler http.Handler = api
	if s := hc.RequestTimeoutS; s > 0 {
		handler = http.TimeoutHandler(api, time.Duration(s*float64(time.Second)), "request timed out")
	}
	if hc.Obs == nil && !hc.Pprof {
		return handler
	}
	outer := http.NewServeMux()
	outer.Handle("/", handler)
	if hc.Obs != nil {
		outer.Handle("/metrics", hc.Obs.Registry.Handler())
	}
	if hc.Pprof {
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return outer
}

// traceCtx lifts the trace header, if any, into the request context so
// the pipeline's spans join the caller's trace.
func traceCtx(r *http.Request) *http.Request {
	if tr := r.Header.Get(obs.TraceHeader); tr != "" {
		return r.WithContext(obs.WithTrace(r.Context(), tr))
	}
	return r
}

// route is one endpoint: its verb and path, registered as a method
// pattern so any other verb answers 405 with an Allow header.
type route struct {
	method, path string
	handler      http.HandlerFunc
}

// publicRoutes is the public surface, stated once: the mux registers
// it, the HTTP metrics label by its paths, a shard process refuses its
// writes, and a shard's read side IS these reads (RemoteShard fetches
// /v1/stats, /v1/pipeline and /v1/traffic). A new derived read is one
// function of (Transit, TrafficSnapshot) plus one row here.
func publicRoutes(b API, hc HandlerConfig) []route {
	render := renderTraffic
	if hc.Obs != nil {
		renders := hc.Obs.Registry.Counter("busprobe_traffic_renders_total",
			"Full-map /v1/traffic bodies rendered: one per snapshot version that was read.")
		render = func(snap *traffic.Snapshot) []byte {
			renders.Inc()
			return renderTraffic(snap)
		}
	}
	return []route{
		// Liveness.
		{http.MethodGet, "/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok") //lint:allow errcheckio a failed liveness write means the prober is gone; there is no one left to tell
		}},
		// Upload one probe.Trip (JSON).
		{http.MethodPost, "/v1/trips", func(w http.ResponseWriter, r *http.Request) {
			var trip probe.Trip
			if !decodeBody(w, r, maxUploadBytes, &trip, func(msg string) any { return UploadResponseJSON{Error: msg} }) {
				return
			}
			res, err := b.ProcessTrip(r.Context(), trip)
			if err != nil {
				writeJSON(w, classify(err).status, uploadRow(trip.ID, res, err))
				return
			}
			writeJSON(w, http.StatusAccepted, uploadRow(trip.ID, res, nil))
		}},
		// Upload a JSON array of trips (concurrent ingest).
		{http.MethodPost, "/v1/trips/batch", func(w http.ResponseWriter, r *http.Request) {
			var trips []probe.Trip
			if !decodeBody(w, r, maxBatchUploadBytes, &trips, func(msg string) any { return BatchUploadResponseJSON{Error: msg} }) {
				return
			}
			// Admission is per shard inside IngestBatch: on a coordinator a
			// saturated region sheds only its own trips (per-row
			// ErrOverloaded codes) while the rest of the batch ingests. Only
			// a batch shed in full keeps the 429 + Retry-After answer.
			results := b.IngestBatch(r.Context(), trips)
			shedAll := len(results) > 0
			for _, res := range results {
				if !errors.Is(res.Err, ErrOverloaded) {
					shedAll = false
					break
				}
			}
			if shedAll {
				w.Header().Set("Retry-After", "1")
				writeJSON(w, classify(ErrOverloaded).status, BatchUploadResponseJSON{
					Rejected: len(trips),
					Error:    ErrOverloaded.Error(),
				})
				return
			}
			out := BatchUploadResponseJSON{Results: make([]UploadResponseJSON, len(results))}
			for i, res := range results {
				out.Results[i] = uploadRow(trips[i].ID, res.Trip, res.Err)
				if res.Err != nil {
					out.Rejected++
				} else {
					out.Accepted++
				}
			}
			writeJSON(w, http.StatusOK, out)
		}},
		// Per-stage instrumentation counters.
		{http.MethodGet, "/v1/pipeline", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, b.StageMetrics())
		}},
		// Full traffic-map snapshot, versioned: ETag +
		// X-Busprobe-Traffic-Version, If-None-Match → 304. The body is
		// the snapshot's memoised bytes — rendered by the version's first
		// reader, written as-is to every later one (HEAD, which a GET
		// pattern also routes, gets the same headers and no body).
		{http.MethodGet, "/v1/traffic", func(w http.ResponseWriter, r *http.Request) {
			snap := b.TrafficSnapshot()
			if trafficHeaders(w, r, snap.Version) {
				return
			}
			body := snap.Rendered(render)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			if r.Method != http.MethodHead {
				_, _ = w.Write(body) //lint:allow errcheckio the status line is already on the wire; a failure here is a mid-body disconnect with no channel left to report it on
			}
		}},
		// ?since=V&waitS=S: long-poll for the delta past version V (since
		// omitted/0 → full map).
		{http.MethodGet, "/v1/traffic/watch", func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			var since uint64
			if s := q.Get("since"); s != "" {
				v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
				if err != nil {
					http.Error(w, "bad since version", http.StatusBadRequest)
					return
				}
				since = v
			}
			waitS := defaultWatchWaitS
			if s := q.Get("waitS"); s != "" {
				v, err := finiteParam(strings.TrimSpace(s))
				if err != nil || v < 0 {
					http.Error(w, "bad waitS", http.StatusBadRequest)
					return
				}
				waitS = v
			}
			if waitS > maxWatchWaitS {
				waitS = maxWatchWaitS
			}
			// The long poll must resolve inside the per-request timeout
			// wrapping the /v1 surface, or TimeoutHandler would cut it off
			// mid-wait and answer 503 for a healthy server.
			if rt := hc.RequestTimeoutS; rt > 0 && waitS > rt/2 {
				waitS = rt / 2
			}
			snap, resync := watchSnapshot(r.Context(), b, since, waitS)
			if resync {
				since = 0
			}
			if trafficHeaders(w, r, snap.Version) {
				return
			}
			changed, removed := snap.DeltaSince(since)
			out := TrafficWatchJSON{
				Version: snap.Version,
				Since:   since,
				Resync:  resync,
				Changed: make([]SegmentEstimateJSON, 0, len(changed)),
			}
			for _, sid := range changed {
				out.Changed = append(out.Changed, estimateJSON(sid, snap.Estimates[sid]))
			}
			for _, sid := range removed {
				out.Removed = append(out.Removed, int(sid))
			}
			writeJSON(w, http.StatusOK, out)
		}},
		// ?id=N: one segment's estimate.
		{http.MethodGet, "/v1/traffic/segment", func(w http.ResponseWriter, r *http.Request) {
			idStr := r.URL.Query().Get("id")
			id, err := strconv.Atoi(strings.TrimSpace(idStr))
			if err != nil {
				http.Error(w, "bad segment id", http.StatusBadRequest)
				return
			}
			est, ok := b.TrafficSnapshot().Get(road.SegmentID(id))
			if !ok {
				http.Error(w, "no estimate for segment", http.StatusNotFound)
				return
			}
			writeJSON(w, http.StatusOK, estimateJSON(road.SegmentID(id), est))
		}},
		// Pipeline counters.
		{http.MethodGet, "/v1/stats", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, b.Stats())
		}},
		// Per-shard footprint and counters.
		{http.MethodGet, "/v1/shards", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, b.ShardStatuses())
		}},
		// Inferred regional congestion index.
		{http.MethodGet, "/v1/region", func(w http.ResponseWriter, r *http.Request) {
			model, err := RegionModel(b)
			if err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			writeJSON(w, http.StatusOK, RegionJSON{
				OverallIndex: model.OverallIndex(),
				CoveredZones: model.CoveredZones(),
			})
		}},
		// ?depart=T: per-route live end-to-end travel times.
		{http.MethodGet, "/v1/routes", func(w http.ResponseWriter, r *http.Request) {
			departS, err := finiteParam(r.URL.Query().Get("depart"))
			if err != nil {
				http.Error(w, "need depart parameter", http.StatusBadRequest)
				return
			}
			statuses, err := RouteStatuses(b, departS)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			writeJSON(w, http.StatusOK, statuses)
		}},
		// ?route=R&stop=I&depart=T: downstream ETAs.
		{http.MethodGet, "/v1/arrivals", func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			routeID := transit.RouteID(q.Get("route"))
			fromIdx, err1 := strconv.Atoi(q.Get("stop"))
			departS, err2 := finiteParam(q.Get("depart"))
			if routeID == "" || err1 != nil || err2 != nil {
				http.Error(w, "need route, stop and depart parameters", http.StatusBadRequest)
				return
			}
			preds, err := PredictArrivals(b, routeID, fromIdx, departS)
			if err != nil {
				http.Error(w, err.Error(), http.StatusUnprocessableEntity)
				return
			}
			writeJSON(w, http.StatusOK, preds)
		}},
	}
}

// apiMux builds the /v1 + /healthz surface from publicRoutes.
func apiMux(b API, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	paths := make(map[string]bool)
	for _, rt := range publicRoutes(b, hc) {
		mux.HandleFunc(rt.method+" "+rt.path, rt.handler)
		paths[rt.path] = true
	}
	var handler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, traceCtx(r))
	})
	if hc.Obs != nil {
		handler = obsMiddleware(hc.Obs, paths, handler)
	}
	return handler
}

// decodeBody reads a size-bounded JSON request body into v. A body that
// does not parse (or overruns limit) is answered 400 — with errBody's
// rendering of the message where the endpoint has a response shape for
// it, as plain text otherwise — and reported false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any, errBody func(msg string) any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	switch {
	case err == nil:
		return true
	case errBody == nil:
		http.Error(w, "malformed JSON: "+err.Error(), http.StatusBadRequest)
	default:
		writeJSON(w, http.StatusBadRequest, errBody("malformed JSON: "+err.Error()))
	}
	return false
}

// finiteParam parses a float query parameter, refusing the NaN and ±Inf
// spellings strconv accepts: they pass any range check, and one
// reaching a response body fails its JSON encoding after the 200 is
// already on the wire.
func finiteParam(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%q is not finite", s)
	}
	return v, err
}

// defaultWatchWaitS is how long /v1/traffic/watch holds a poll open
// waiting for the snapshot version to move past the client's.
const defaultWatchWaitS = 25.0

// maxWatchWaitS caps a client-requested watch wait.
const maxWatchWaitS = 60.0

// watchPollInterval is the wake-up cadence of one held watch poll. The
// handler polls the snapshot pointer rather than subscribing, so the
// read path needs no registration structure at all — a pointer load
// every few tens of milliseconds per held watcher is far cheaper than
// the full-map reads the watch replaces.
const watchPollInterval = 20 * time.Millisecond

// watchSnapshot resolves one watch poll: it returns as soon as the
// published snapshot's version exceeds since, or after waitS seconds
// with whatever is current (an unchanged version yields an empty
// delta). A since ahead of the served version — the server restarted
// and its sequence reset — reports resync, and the caller serves the
// full map from version 0.
func watchSnapshot(ctx context.Context, b API, since uint64, waitS float64) (snap *traffic.Snapshot, resync bool) {
	snap = b.TrafficSnapshot()
	if snap.Version > since {
		return snap, false
	}
	if since > snap.Version {
		return snap, true
	}
	if waitS <= 0 {
		return snap, false
	}
	deadline := time.NewTimer(time.Duration(waitS * float64(time.Second)))
	defer deadline.Stop()
	poll := time.NewTicker(watchPollInterval)
	defer poll.Stop()
	for {
		select {
		case <-ctx.Done():
			return snap, false
		case <-deadline.C:
			return b.TrafficSnapshot(), false
		case <-poll.C:
			snap = b.TrafficSnapshot()
			if snap.Version != since {
				return snap, snap.Version < since
			}
		}
	}
}

// obsMiddleware counts requests and observes their latency on the core
// clock, labeled by path; anything outside paths (404s, probes)
// collapses into "other" so label cardinality stays bounded.
func obsMiddleware(core *obs.Core, paths map[string]bool, next http.Handler) http.Handler {
	reg := core.Registry
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		if !paths[path] {
			path = "other"
		}
		pl := obs.Label{Name: "path", Value: path}
		start := core.Clock.Now()
		next.ServeHTTP(w, r)
		reg.Counter("busprobe_http_requests_total", "HTTP requests served, by path.", pl).Inc()
		reg.Histogram("busprobe_http_request_duration_seconds",
			"HTTP request latency, by path.", obs.LatencyBuckets, pl).
			Observe(core.Clock.Now().Sub(start).Seconds())
	})
}

// RegionJSON is the /v1/region response.
type RegionJSON struct {
	OverallIndex float64 `json:"overallIndex"`
	CoveredZones int     `json:"coveredZones"`
}

func estimateJSON(sid road.SegmentID, est traffic.Estimate) SegmentEstimateJSON {
	return SegmentEstimateJSON{
		Segment:  int(sid),
		SpeedKmh: est.SpeedKmh,
		Var:      est.Var,
		Reports:  est.Reports,
		UpdatedS: est.UpdatedS,
		Level:    traffic.LevelOf(est.SpeedKmh).String(),
	}
}

// renderTraffic builds the /v1/traffic body of one snapshot: every
// estimate as a row, ascending by segment, compact JSON plus a newline.
// Its only caller is the snapshot's Rendered memo, so it runs once per
// version that is read and never on a write path.
func renderTraffic(snap *traffic.Snapshot) []byte {
	rows := make([]SegmentEstimateJSON, 0, len(snap.Estimates))
	for sid, est := range snap.Estimates {
		rows = append(rows, estimateJSON(sid, est))
	}
	sortRows(rows)
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(rows) //lint:allow errcheckio a buffer write cannot fail; Encode refuses only a non-finite estimate, and that leaves an empty body
	return buf.Bytes()
}

func sortRows(rows []SegmentEstimateJSON) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Segment < rows[j].Segment })
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) //lint:allow errcheckio the status line is already on the wire; a failure here is a mid-body disconnect with no channel left to report it on
}
