package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"busprobe/internal/core/traffic"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/server/stage"
)

// ErrShardUnavailable marks a shard process the coordinator could not
// reach (transport failure or unexpected status). It has its own row
// in the rejections table; the phone-side retry policy treats it like
// any other transient failure and retries with backoff.
var ErrShardUnavailable = fmt.Errorf("server: shard unavailable")

// scatterAttempts bounds one scatter's delivery tries. Scatter is the
// one call worth retrying inside the shard tier: the trip is already
// admitted and logged on its home shard, so giving up turns a
// transient network blip into a trip failure, while the idempotency key
// makes the extra deliveries harmless.
const scatterAttempts = 3

// RemoteShard is one shard process as the coordinator sees it. It
// implements Shard, so a Coordinator dispatches to it exactly as it does
// to an in-process backend: the four writes travel the internal wire
// (shardrpc.go), the three reads are plain GETs of the public API the
// shard process serves anyway, and contexts ride every hop
// (cancellation and the X-Busprobe-Trace header, via Client.do).
type RemoteShard struct {
	cli *Client
	// retrySleep pauses before scatter attempt n (n ≥ 1), returning
	// early with the context's error if the caller gives up. Injectable
	// so tests retry without real delays.
	retrySleep func(ctx context.Context, attempt int) error

	// trafficMu guards lastTraffic, the most recent snapshot fetched
	// from this shard. Traffic revalidates it with If-None-Match, so an
	// idle shard answers 304 and no estimate body crosses the wire.
	trafficMu   sync.Mutex
	lastTraffic *traffic.Snapshot //lint:guardedby trafficMu
}

var _ Shard = (*RemoteShard)(nil)

// NewRemoteShard returns a client for the shard process at addr (e.g.
// "http://127.0.0.1:9001"), with the default request timeout and a
// capped exponential pause between scatter retries.
func NewRemoteShard(addr string) *RemoteShard {
	return &RemoteShard{
		cli:        &Client{baseURL: strings.TrimRight(addr, "/"), http: &http.Client{Timeout: DefaultClientTimeout}},
		retrySleep: scatterPause,
	}
}

// scatterPause waits 50ms·2^(attempt-1) or until the context ends.
func scatterPause(ctx context.Context, attempt int) error {
	d := 50 * time.Millisecond << (attempt - 1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// unavailable wraps a transport-level failure against this shard so
// callers (and the coordinator's public HTTP layer) can classify it.
func (s *RemoteShard) unavailable(op string, err error) error {
	return fmt.Errorf("%s %s: %v: %w", op, s.cli.baseURL, err, ErrShardUnavailable)
}

// Addr names the shard process's base URL.
func (s *RemoteShard) Addr() string { return s.cli.baseURL }

// call posts one pre-encoded body to an internal route and, when the
// shard answers want, decodes the response into out (nil: none
// expected). Any other status is an error carrying the head of the
// body. Errors come back bare; each caller wraps them as unavailable.
func (s *RemoteShard) call(ctx context.Context, path string, body []byte, want int, out any) error {
	resp, err := s.cli.do(ctx, http.MethodPost, path, body, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return errors.New(statusText(resp))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ProcessTrip forwards one routed trip. Rejections come back as the
// same sentinels the in-process path returns, rebuilt from the row
// code, so the coordinator's upload responses are indistinguishable
// from a monolith's.
func (s *RemoteShard) ProcessTrip(ctx context.Context, trip probe.Trip) (ProcessedTrip, error) {
	body, err := json.Marshal(&trip)
	if err != nil {
		return ProcessedTrip{}, fmt.Errorf("server: encode trip: %w", err)
	}
	var out shardTripJSON
	if err := s.call(ctx, "/internal/v1/trip", body, http.StatusOK, &out); err != nil {
		return ProcessedTrip{}, s.unavailable("server: forward trip to", err)
	}
	return out.Trip, out.err()
}

// IngestBatch forwards a routed sub-batch behind the shard's admission
// gate and rebuilds per-trip results in input order; shed trips come
// back as per-row ErrOverloaded, which the public layer surfaces as
// 429s feeding the phone retry/backoff machinery. A transport failure
// fails every trip in the sub-batch with ErrShardUnavailable — the
// phones retry, the home shard's dedup set absorbs any that did land.
func (s *RemoteShard) IngestBatch(ctx context.Context, trips []probe.Trip) []TripResult {
	res := make([]TripResult, len(trips))
	fail := func(err error) []TripResult {
		for i := range res {
			res[i] = TripResult{Err: err}
		}
		return res
	}
	body, err := json.Marshal(trips)
	if err != nil {
		return fail(fmt.Errorf("server: encode batch: %w", err))
	}
	var rows []shardTripJSON
	if err := s.call(ctx, "/internal/v1/trips", body, http.StatusOK, &rows); err != nil {
		return fail(s.unavailable("server: forward batch to", err))
	}
	if len(rows) != len(trips) {
		return fail(s.unavailable("server: forward batch to",
			fmt.Errorf("%d results for %d trips", len(rows), len(trips))))
	}
	for i, row := range rows {
		res[i] = TripResult{Trip: row.Trip, Err: row.err()}
	}
	return res
}

// Scatter delivers one cross-shard observation group, retrying
// transient failures up to scatterAttempts times. The idempotency key
// makes the retry safe: a delivery whose response was lost already
// recorded its outcome on the owner, and the retried call gets that
// recorded outcome back instead of folding twice.
func (s *RemoteShard) Scatter(ctx context.Context, key string, obsGroup []traffic.Observation) (stage.EstimateOutput, error) {
	body, err := json.Marshal(scatterRequestJSON{Key: key, Observations: obsGroup})
	if err != nil {
		return stage.EstimateOutput{}, fmt.Errorf("server: encode scatter: %w", err)
	}
	var lastErr error
	for attempt := 0; attempt < scatterAttempts; attempt++ {
		if attempt > 0 {
			if err := s.retrySleep(ctx, attempt); err != nil {
				break
			}
		}
		var out stage.EstimateOutput
		if lastErr = s.call(ctx, "/internal/v1/scatter", body, http.StatusOK, &out); lastErr == nil {
			return out, nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	return stage.EstimateOutput{}, s.unavailable("server: scatter to", lastErr)
}

// Stats fetches the shard's work counters; answering at all is also the
// shard's readiness probe (Coordinator.ProbeShards).
func (s *RemoteShard) Stats(ctx context.Context) (Stats, error) {
	out, err := getJSON[Stats](ctx, s.cli, "/v1/stats")
	if err != nil {
		return Stats{}, s.unavailable("server: stats from", err)
	}
	return out, nil
}

// StageMetrics fetches the shard's per-stage instrumentation.
func (s *RemoteShard) StageMetrics(ctx context.Context) ([]stage.Metrics, error) {
	out, err := getJSON[[]stage.Metrics](ctx, s.cli, "/v1/pipeline")
	if err != nil {
		return nil, s.unavailable("server: pipeline from", err)
	}
	return out, nil
}

// Traffic fetches the shard's versioned snapshot from its public
// /v1/traffic, revalidating the cached one with If-None-Match so an
// unchanged shard answers 304 and ships no body. The version is the
// X-Busprobe-Traffic-Version header; the rows carry every Estimate
// field and encoding/json round-trips float64 bit-exactly, so the
// coordinator's merged map matches an in-process merge byte for byte.
// The returned snapshot carries only Version and Estimates (see
// Shard.Traffic); it is shared across calls and must not be mutated.
func (s *RemoteShard) Traffic(ctx context.Context) (*traffic.Snapshot, error) {
	s.trafficMu.Lock()
	cached := s.lastTraffic
	s.trafficMu.Unlock()
	etag := ""
	if cached != nil {
		etag = trafficETag(cached.Version)
	}
	resp, err := s.cli.do(ctx, http.MethodGet, "/v1/traffic", nil, etag)
	if err != nil {
		return nil, s.unavailable("server: traffic from", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified && cached != nil {
		return cached, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, s.unavailable("server: traffic from", fmt.Errorf("status %d", resp.StatusCode))
	}
	version, err := strconv.ParseUint(resp.Header.Get(TrafficVersionHeader), 10, 64)
	if err != nil {
		return nil, s.unavailable("server: traffic from", fmt.Errorf("version header: %w", err))
	}
	var rows []SegmentEstimateJSON
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, s.unavailable("server: traffic from", err)
	}
	ests := make(map[road.SegmentID]traffic.Estimate, len(rows))
	for _, row := range rows {
		ests[road.SegmentID(row.Segment)] = traffic.Estimate{
			SpeedKmh: row.SpeedKmh, Var: row.Var, Reports: row.Reports, UpdatedS: row.UpdatedS,
		}
	}
	snap := &traffic.Snapshot{Version: version, Estimates: ests}
	s.trafficMu.Lock()
	s.lastTraffic = snap
	s.trafficMu.Unlock()
	return snap, nil
}

// Advance drives the shard's estimator clock.
func (s *RemoteShard) Advance(ctx context.Context, nowS float64) error {
	body, err := json.Marshal(nowS)
	if err != nil {
		return fmt.Errorf("server: encode advance: %w", err)
	}
	if err := s.call(ctx, "/internal/v1/advance", body, http.StatusNoContent, nil); err != nil {
		return s.unavailable("server: advance", err)
	}
	return nil
}
