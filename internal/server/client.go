package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

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

// statusErr maps a rejection status to the matching sentinel so callers
// classify HTTP rejections exactly like in-process ones; unknown
// statuses map to nil.
func statusErr(status int) error {
	switch status {
	case http.StatusConflict:
		return ErrDuplicateTrip
	case http.StatusBadRequest:
		return ErrInvalidTrip
	case http.StatusTooManyRequests:
		return ErrOverloaded
	case http.StatusBadGateway:
		return ErrShardUnavailable
	default:
		return nil
	}
}

// codeErr rebuilds a wire rejection row (the code uploadCode rendered,
// plus the message) as the matching sentinel error, so a phone behind
// Client.UploadBatch and a coordinator behind RemoteShard classify
// remote rejections exactly like in-process ones (and the HTTP layer
// re-derives the same status code). It is only called for a rejected
// row, so an unknown or missing code is still an error, just an
// unclassified one.
func codeErr(code, msg string) error {
	switch code {
	case "duplicate":
		return fmt.Errorf("upload rejected: %s: %w", msg, ErrDuplicateTrip)
	case "invalid":
		return fmt.Errorf("upload rejected: %s: %w", msg, ErrInvalidTrip)
	case "overloaded":
		return fmt.Errorf("upload rejected: %s: %w", msg, ErrOverloaded)
	default:
		return fmt.Errorf("server: upload rejected: %s", msg)
	}
}

// post sends a JSON body with the request context; a trace ID in the
// context rides the X-Busprobe-Trace header, so server-side spans join
// the caller's trace across the network hop.
func (c *Client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr := obs.TraceID(ctx); tr != "" {
		req.Header.Set(obs.TraceHeader, tr)
	}
	return c.http.Do(req)
}

// Upload posts one trip. Rejections carry the server sentinels: 409 →
// ErrDuplicateTrip, 400 → ErrInvalidTrip, 429 → ErrOverloaded. The
// context cancels the round trip and propagates the caller's trace.
func (c *Client) Upload(ctx context.Context, trip probe.Trip) error {
	body, err := json.Marshal(&trip)
	if err != nil {
		return fmt.Errorf("server: encode trip: %w", err)
	}
	resp, err := c.post(ctx, "/v1/trips", body)
	if err != nil {
		return fmt.Errorf("server: upload: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		if sent := statusErr(resp.StatusCode); sent != nil {
			return fmt.Errorf("upload rejected (%d): %s: %w", resp.StatusCode, strings.TrimSpace(string(msg)), sent)
		}
		return fmt.Errorf("server: upload rejected (%d): %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// UploadTrips posts a batch of trips through the server's concurrent
// ingest endpoint, returning the per-trip outcomes in input order.
func (c *Client) UploadTrips(ctx context.Context, trips []probe.Trip) (BatchUploadResponseJSON, error) {
	var out BatchUploadResponseJSON
	body, err := json.Marshal(trips)
	if err != nil {
		return out, fmt.Errorf("server: encode batch: %w", err)
	}
	resp, err := c.post(ctx, "/v1/trips/batch", body)
	if err != nil {
		return out, fmt.Errorf("server: batch upload: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		if resp.StatusCode == http.StatusTooManyRequests {
			return out, fmt.Errorf("batch upload shed (retry after %s): %w",
				resp.Header.Get("Retry-After"), ErrOverloaded)
		}
		return out, fmt.Errorf("server: batch upload rejected (%d): %s", resp.StatusCode, strings.TrimSpace(string(msg)))
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
			errs[i] = codeErr(row.Code, row.Error)
		}
	}
	return errs
}

// PipelineMetrics fetches the backend's per-stage instrumentation
// counters.
func (c *Client) PipelineMetrics(ctx context.Context) ([]stage.Metrics, error) {
	var out []stage.Metrics
	if err := c.getJSON(ctx, "/v1/pipeline", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Traffic fetches the full traffic-map snapshot.
func (c *Client) Traffic(ctx context.Context) ([]SegmentEstimateJSON, error) {
	var out []SegmentEstimateJSON
	if err := c.getJSON(ctx, "/v1/traffic", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// TrafficWatch long-polls /v1/traffic/watch for the delta past version
// since, holding the poll up to waitS seconds (0 = return immediately,
// negative = server default). The context must outlive the wait —
// callers using the default http.Client should keep waitS under
// DefaultClientTimeout.
func (c *Client) TrafficWatch(ctx context.Context, since uint64, waitS float64) (TrafficWatchJSON, error) {
	var out TrafficWatchJSON
	path := fmt.Sprintf("/v1/traffic/watch?since=%d", since)
	if waitS >= 0 {
		path += fmt.Sprintf("&waitS=%g", waitS)
	}
	err := c.getJSON(ctx, path, &out)
	return out, err
}

// Stats fetches the backend counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.getJSON(ctx, "/v1/stats", &out)
	return out, err
}

// Shards fetches the per-shard footprint and counters (one row for a
// monolithic backend).
func (c *Client) Shards(ctx context.Context) ([]ShardStatus, error) {
	var out []ShardStatus
	if err := c.getJSON(ctx, "/v1/shards", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Region fetches the inferred regional congestion summary.
func (c *Client) Region(ctx context.Context) (RegionJSON, error) {
	var out RegionJSON
	err := c.getJSON(ctx, "/v1/region", &out)
	return out, err
}

// Arrivals fetches downstream ETAs for a bus departing stop index
// fromIdx of a route at departS.
func (c *Client) Arrivals(ctx context.Context, route string, fromIdx int, departS float64) ([]ArrivalJSON, error) {
	var out []ArrivalJSON
	path := fmt.Sprintf("/v1/arrivals?route=%s&stop=%d&depart=%g", route, fromIdx, departS)
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Healthy reports whether the backend answers its liveness probe.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+path, nil)
	if err != nil {
		return fmt.Errorf("server: GET %s: %w", path, err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("server: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("server: GET %s: decode: %w", path, err)
	}
	return nil
}
