package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"busprobe/internal/core/traffic"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/server/stage"
)

// ErrShardUnavailable marks a shard process the coordinator could not
// reach (transport failure or unexpected status). The HTTP layer maps
// it to 502; the phone-side retry policy treats it like any other
// transient failure and retries with backoff.
var ErrShardUnavailable = fmt.Errorf("server: shard unavailable")

// scatterAttempts bounds one scatter's delivery tries. Scatter is the
// one call worth retrying inside the shard tier: the trip is already
// admitted and logged on its home shard, so giving up turns a
// transient network blip into a trip failure, while the idempotency key
// makes the extra deliveries harmless.
const scatterAttempts = 3

// RemoteShard speaks the shard wire protocol to one shard process. It
// implements Shard, so a Coordinator dispatches to it exactly as it
// does to an in-process backend; contexts ride the hop (cancellation
// and the X-Busprobe-Trace header, via Client.post).
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

// ProcessTrip forwards one routed trip. Rejections come back as the
// same sentinels the in-process path returns, rebuilt from the wire
// code, so the coordinator's upload responses are indistinguishable
// from a monolith's.
func (s *RemoteShard) ProcessTrip(ctx context.Context, trip probe.Trip) (ProcessedTrip, error) {
	body, err := json.Marshal(&trip)
	if err != nil {
		return ProcessedTrip{}, fmt.Errorf("server: encode trip: %w", err)
	}
	resp, err := s.cli.post(ctx, "/internal/v1/trip", body)
	if err != nil {
		return ProcessedTrip{}, s.unavailable("server: forward trip to", err)
	}
	defer resp.Body.Close()
	var out shardTripJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return ProcessedTrip{}, s.unavailable("server: forward trip to", err)
	}
	if out.Code != "" {
		return out.Trip, codeErr(out.Code, out.Error)
	}
	if resp.StatusCode != http.StatusAccepted {
		return out.Trip, s.unavailable("server: forward trip to", fmt.Errorf("status %d", resp.StatusCode))
	}
	return out.Trip, nil
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
	resp, err := s.cli.post(ctx, "/internal/v1/trips", body)
	if err != nil {
		return fail(s.unavailable("server: forward batch to", err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fail(s.unavailable("server: forward batch to",
			fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))))
	}
	var out shardBatchJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fail(s.unavailable("server: forward batch to", err))
	}
	if len(out.Results) != len(trips) {
		return fail(s.unavailable("server: forward batch to",
			fmt.Errorf("%d results for %d trips", len(out.Results), len(trips))))
	}
	for i, row := range out.Results {
		res[i].Trip = row.Trip
		if row.Code != "" {
			res[i].Err = codeErr(row.Code, row.Error)
		}
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
		out, err := s.scatterOnce(ctx, body)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return stage.EstimateOutput{}, s.unavailable("server: scatter to", lastErr)
}

// scatterOnce is one delivery attempt.
func (s *RemoteShard) scatterOnce(ctx context.Context, body []byte) (stage.EstimateOutput, error) {
	resp, err := s.cli.post(ctx, "/internal/v1/scatter", body)
	if err != nil {
		return stage.EstimateOutput{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return stage.EstimateOutput{}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var out scatterResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return stage.EstimateOutput{}, err
	}
	return stage.EstimateOutput{Folded: out.Folded, Discarded: out.Discarded}, nil
}

// Stats fetches the shard's work counters.
func (s *RemoteShard) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	if err := s.cli.getJSON(ctx, "/internal/v1/stats", &out); err != nil {
		return Stats{}, s.unavailable("server: stats from", err)
	}
	return out, nil
}

// StageMetrics fetches the shard's per-stage instrumentation.
func (s *RemoteShard) StageMetrics(ctx context.Context) ([]stage.Metrics, error) {
	var out []stage.Metrics
	if err := s.cli.getJSON(ctx, "/internal/v1/pipeline", &out); err != nil {
		return nil, s.unavailable("server: pipeline from", err)
	}
	return out, nil
}

// Traffic fetches the shard's versioned segment→estimate snapshot,
// revalidating the cached one with If-None-Match so an unchanged shard
// answers 304 and ships no body. encoding/json round-trips the float64
// fields bit-exactly, so the coordinator's merged map matches an
// in-process merge byte for byte. The returned snapshot carries only
// Version and Estimates (see Shard.Traffic); it is shared across calls
// and must not be mutated.
func (s *RemoteShard) Traffic(ctx context.Context) (*traffic.Snapshot, error) {
	s.trafficMu.Lock()
	cached := s.lastTraffic
	s.trafficMu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.cli.baseURL+"/internal/v1/traffic", nil)
	if err != nil {
		return nil, s.unavailable("server: traffic from", err)
	}
	if cached != nil {
		req.Header.Set("If-None-Match", trafficETag(cached.Version))
	}
	resp, err := s.cli.http.Do(req)
	if err != nil {
		return nil, s.unavailable("server: traffic from", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return cached, nil
	case http.StatusOK:
		var out shardTrafficJSON
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, s.unavailable("server: traffic from", err)
		}
		if out.Estimates == nil {
			out.Estimates = map[road.SegmentID]traffic.Estimate{}
		}
		snap := &traffic.Snapshot{Version: out.Version, Estimates: out.Estimates}
		s.trafficMu.Lock()
		s.lastTraffic = snap
		s.trafficMu.Unlock()
		return snap, nil
	default:
		return nil, s.unavailable("server: traffic from", fmt.Errorf("status %d", resp.StatusCode))
	}
}

// Advance drives the shard's estimator clock.
func (s *RemoteShard) Advance(ctx context.Context, nowS float64) error {
	body, err := json.Marshal(advanceRequestJSON{NowS: nowS})
	if err != nil {
		return fmt.Errorf("server: encode advance: %w", err)
	}
	resp, err := s.cli.post(ctx, "/internal/v1/advance", body)
	if err != nil {
		return s.unavailable("server: advance", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return s.unavailable("server: advance", fmt.Errorf("status %d", resp.StatusCode))
	}
	return nil
}

// Ready probes the shard process's readiness.
func (s *RemoteShard) Ready(ctx context.Context) error {
	var out shardReadyJSON
	if err := s.cli.getJSON(ctx, "/internal/v1/ready", &out); err != nil {
		return s.unavailable("server: probe", err)
	}
	if !out.Ready {
		return s.unavailable("server: probe", fmt.Errorf("shard reports not ready"))
	}
	return nil
}
