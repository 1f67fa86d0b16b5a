package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"busprobe/internal/core/arrival"
	"busprobe/internal/obs"
	"busprobe/internal/phone"
	"busprobe/internal/probe"
	"busprobe/internal/server/stage"
)

// DefaultClientTimeout bounds a client request when the caller does not
// supply its own http.Client. Without it, a stalled backend would hang
// Upload and Healthy forever.
const DefaultClientTimeout = 15 * time.Second

// Client talks to a backend over its HTTP API. It implements
// phone.Uploader, so simulated phones can upload over a real network
// path.
type Client struct {
	baseURL string
	http    *http.Client
}

var (
	_ phone.Uploader      = (*Client)(nil)
	_ phone.BatchUploader = (*Client)(nil)
)

// NewClient returns a client for the backend at baseURL (e.g.
// "http://127.0.0.1:8080"). A nil httpClient gets a private client with
// DefaultClientTimeout, never the timeout-less http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("server: empty base URL")
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: DefaultClientTimeout}
	}
	return &Client{baseURL: strings.TrimRight(baseURL, "/"), http: httpClient}, nil
}

// do sends one request under the caller's context — every call Client
// and RemoteShard make goes through it. A non-nil body is posted as
// JSON (a nil one is an empty reader, which net/http sends as no body);
// a trace ID in the context rides the X-Busprobe-Trace header, so
// server-side spans join the caller's trace across the network hop; a
// non-empty etag revalidates with If-None-Match.
func (c *Client) do(ctx context.Context, method, path string, body []byte, etag string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tr := obs.TraceID(ctx); tr != "" {
		req.Header.Set(obs.TraceHeader, tr)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	return c.http.Do(req)
}

// statusText renders a refusal for an error message: its status and the
// head of its body.
func statusText(resp *http.Response) string {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	return fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
}

// Upload posts one trip. Rejections carry the server sentinels the
// rejections table pairs with the answer's status. The context cancels
// the round trip and propagates the caller's trace.
func (c *Client) Upload(ctx context.Context, trip probe.Trip) error {
	body, err := json.Marshal(&trip)
	if err != nil {
		return fmt.Errorf("server: encode trip: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/trips", body, "")
	if err != nil {
		return fmt.Errorf("server: upload: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return rejected("", resp.StatusCode, statusText(resp))
	}
	return nil
}

// UploadTrips posts a batch of trips through the server's concurrent
// ingest endpoint, returning the per-trip outcomes in input order. A
// batch refused whole (shed in full, malformed) fails like an Upload,
// with the sentinel its status names.
func (c *Client) UploadTrips(ctx context.Context, trips []probe.Trip) (BatchUploadResponseJSON, error) {
	var out BatchUploadResponseJSON
	body, err := json.Marshal(trips)
	if err != nil {
		return out, fmt.Errorf("server: encode batch: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/trips/batch", body, "")
	if err != nil {
		return out, fmt.Errorf("server: batch upload: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, rejected("", resp.StatusCode, statusText(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("server: batch upload: decode: %w", err)
	}
	return out, nil
}

// UploadBatch implements phone.BatchUploader over UploadTrips: errs[i]
// reports trip i's outcome.
func (c *Client) UploadBatch(ctx context.Context, trips []probe.Trip) []error {
	errs := make([]error, len(trips))
	out, err := c.UploadTrips(ctx, trips)
	if err != nil || len(out.Results) != len(trips) {
		if err == nil {
			err = fmt.Errorf("server: batch upload: %d results for %d trips", len(out.Results), len(trips))
		}
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	for i, row := range out.Results {
		if !row.Accepted {
			errs[i] = rejected(row.Code, 0, row.Error)
		}
	}
	return errs
}

// PipelineMetrics fetches the backend's per-stage instrumentation
// counters.
func (c *Client) PipelineMetrics(ctx context.Context) ([]stage.Metrics, error) {
	return getJSON[[]stage.Metrics](ctx, c, "/v1/pipeline")
}

// Traffic fetches the full traffic-map snapshot.
func (c *Client) Traffic(ctx context.Context) ([]SegmentEstimateJSON, error) {
	return getJSON[[]SegmentEstimateJSON](ctx, c, "/v1/traffic")
}

// TrafficWatch long-polls /v1/traffic/watch for the delta past version
// since, holding the poll up to waitS seconds (0 = return immediately,
// negative = server default). The context must outlive the wait —
// callers using the default http.Client should keep waitS under
// DefaultClientTimeout.
func (c *Client) TrafficWatch(ctx context.Context, since uint64, waitS float64) (TrafficWatchJSON, error) {
	path := fmt.Sprintf("/v1/traffic/watch?since=%d", since)
	if waitS >= 0 {
		path += fmt.Sprintf("&waitS=%g", waitS)
	}
	return getJSON[TrafficWatchJSON](ctx, c, path)
}

// Stats fetches the backend counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	return getJSON[Stats](ctx, c, "/v1/stats")
}

// Shards fetches the per-shard footprint and counters (one row for a
// monolithic backend).
func (c *Client) Shards(ctx context.Context) ([]ShardStatus, error) {
	return getJSON[[]ShardStatus](ctx, c, "/v1/shards")
}

// Region fetches the inferred regional congestion summary.
func (c *Client) Region(ctx context.Context) (RegionJSON, error) {
	return getJSON[RegionJSON](ctx, c, "/v1/region")
}

// Arrivals fetches downstream ETAs for a bus departing stop index
// fromIdx of a route at departS.
func (c *Client) Arrivals(ctx context.Context, route string, fromIdx int, departS float64) ([]arrival.Prediction, error) {
	q := url.Values{"route": {route}, "stop": {strconv.Itoa(fromIdx)}, "depart": {strconv.FormatFloat(departS, 'g', -1, 64)}}
	return getJSON[[]arrival.Prediction](ctx, c, "/v1/arrivals?"+q.Encode())
}

// Healthy reports whether the backend answers its liveness probe.
func (c *Client) Healthy(ctx context.Context) bool {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil, "")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// getJSON fetches path and decodes its 200 answer as a T; the value is
// meaningful only when the error is nil.
func getJSON[T any](ctx context.Context, c *Client, path string) (out T, err error) {
	resp, err := c.do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return out, fmt.Errorf("server: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("server: GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("server: GET %s: decode: %w", path, err)
	}
	return out, nil
}
