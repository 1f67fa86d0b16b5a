package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/probe"
	"busprobe/internal/server"
)

// clk is the bench's one time source (the repo reads time only through
// internal/clock).
var clk clock.Clock = clock.Wall{}

// newConn returns an HTTP client pinned to a single keep-alive
// connection. The whole load comes from at most two of these: the VM
// has two vCPUs, and a third busy connection would make the client and
// the server fight for them.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// post sends one JSON body and returns the status and response bytes.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// get fetches a URL, optionally conditional on an entity tag, reading
// the body into buf (reused across calls when non-nil).
func get(ctx context.Context, hc *http.Client, url, ifNoneMatch string, buf *bytes.Buffer) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes(), err
}

// uploadOne posts one trip to /v1/trips; anything but 202 is an error.
func uploadOne(ctx context.Context, hc *http.Client, baseURL string, body []byte) error {
	status, out, err := post(ctx, hc, baseURL+"/v1/trips", body)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("POST /v1/trips: status %d: %s", status, strings.TrimSpace(string(out)))
	}
	return nil
}

// uploadBatch posts a trip array to /v1/trips/batch; anything but 200
// with every row accepted is an error.
func uploadBatch(ctx context.Context, hc *http.Client, baseURL string, body []byte, n int) error {
	status, out, err := post(ctx, hc, baseURL+"/v1/trips/batch", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST /v1/trips/batch: status %d: %s", status, strings.TrimSpace(string(out)))
	}
	var resp server.BatchUploadResponseJSON
	if err := json.Unmarshal(out, &resp); err != nil {
		return fmt.Errorf("POST /v1/trips/batch: %w", err)
	}
	if resp.Accepted != n {
		return fmt.Errorf("POST /v1/trips/batch: %d of %d trips accepted", resp.Accepted, n)
	}
	return nil
}

// encodeTrips renders the upload body for one trip (an object) or
// several (an array), as the phone and the batch client do.
func encodeTrips(trips []probe.Trip, batch bool) ([]byte, error) {
	if !batch {
		return json.Marshal(&trips[0])
	}
	return json.Marshal(trips)
}

// closedLoopUpload drives one connection at full speed until every
// trip is acknowledged or the duration has passed, whichever comes
// first: the next request leaves only after the previous answer. Each
// request carries per trips (1 posts to /v1/trips, more to
// /v1/trips/batch). The body is encoded before the request's clock
// starts, and every acknowledged request is one op on the meter. It
// returns the number of trips acknowledged — always a prefix of trips,
// because the loop stops at the first failure, which it returns.
func closedLoopUpload(ctx context.Context, hc *http.Client, baseURL string, trips []probe.Trip, per int, d time.Duration, m *meter) (int, error) {
	acked := 0
	start := clk.Now()
	for acked < len(trips) && clock.Since(clk, start) < d {
		if err := ctx.Err(); err != nil {
			return acked, err
		}
		n := min(per, len(trips)-acked)
		body, err := encodeTrips(trips[acked:acked+n], per > 1)
		if err != nil {
			return acked, err
		}
		t0 := clk.Now()
		if per > 1 {
			err = uploadBatch(ctx, hc, baseURL, body, n)
		} else {
			err = uploadOne(ctx, hc, baseURL, body)
		}
		if err != nil {
			return acked, err
		}
		acked += n
		m.op(clock.Since(clk, t0))
	}
	return acked, nil
}

// pacedUpload sends single trips on a fixed schedule (open loop) until
// stop closes or trips run out, timing each from the instant it was due
// so a stall charges the requests queued behind it. It holds quiet
// around every request: the meter's calibration bursts take the same
// lock, so a burst neither times the kernel against a live upload nor
// lands inside an upload's latency, and the schedule resumes where the
// burst left it. It returns the log and the trips acknowledged (a
// prefix of trips).
func pacedUpload(ctx context.Context, hc *http.Client, baseURL string, trips []probe.Trip, hz float64, quiet *sync.Mutex, stop <-chan struct{}) (*opLog, int) {
	log := &opLog{}
	interval := time.Duration(float64(time.Second) / hz)
	due := clk.Now()
	for k := range trips {
		if wait := due.Sub(clk.Now()); wait > 0 {
			select {
			case <-stop:
				return log, k
			case <-ctx.Done():
				return log, k
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			return log, k
		default:
		}
		body, err := encodeTrips(trips[k:k+1], false)
		if err != nil {
			log.fail(err)
			return log, k
		}
		t0 := clk.Now()
		quiet.Lock()
		// Time spent waiting out a burst is not the server's: the
		// schedule shifts by it.
		due = due.Add(clock.Since(clk, t0))
		err = uploadOne(ctx, hc, baseURL, body)
		quiet.Unlock()
		if err != nil {
			log.fail(err)
			return log, k
		}
		log.raw = append(log.raw, clock.Since(clk, due))
		due = due.Add(interval)
	}
	return log, len(trips)
}

// readCheck validates the stream of /v1/traffic answers one reader
// sees: versions never go backwards, every distinct version's body is
// valid JSON, and a version seen again carries the same bytes (the map
// is a pure function of its version). Parsing once per version keeps
// the reader's own CPU out of the read latency it measures.
type readCheck struct {
	version  uint64
	crc      uint32
	seen     bool
	versions int
}

// check validates one 200 answer.
func (rc *readCheck) check(h http.Header, body []byte) error {
	tag := h.Get("ETag")
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(tag, `"v`), `"`), 10, 64)
	if err != nil {
		return fmt.Errorf("GET /v1/traffic: bad ETag %q", tag)
	}
	sum := crc32.ChecksumIEEE(body)
	switch {
	case rc.seen && v < rc.version:
		return fmt.Errorf("GET /v1/traffic: version went back from %d to %d", rc.version, v)
	case rc.seen && v == rc.version:
		if sum != rc.crc {
			return fmt.Errorf("GET /v1/traffic: version %d served two different bodies", v)
		}
		return nil
	}
	if !json.Valid(body) {
		return fmt.Errorf("GET /v1/traffic: version %d body is not valid JSON", v)
	}
	rc.version, rc.crc, rc.seen = v, sum, true
	rc.versions++
	return nil
}

// closedLoopRead issues unconditional GET /v1/traffic back to back on
// one connection for the given duration; every good answer is one op
// on the meter, every bad one a failure in its log.
func closedLoopRead(ctx context.Context, hc *http.Client, baseURL string, d time.Duration, m *meter) *readCheck {
	rc := &readCheck{}
	var buf bytes.Buffer
	url := baseURL + "/v1/traffic"
	start := clk.Now()
	for clock.Since(clk, start) < d && ctx.Err() == nil {
		t0 := clk.Now()
		status, h, body, err := get(ctx, hc, url, "", &buf)
		lat := clock.Since(clk, t0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET /v1/traffic: status %d", status)
		}
		if err == nil {
			err = rc.check(h, body)
		}
		if err != nil {
			m.log.fail(err)
			continue
		}
		m.op(lat)
	}
	return rc
}
