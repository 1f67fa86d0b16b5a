package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/core/traffic"
	"busprobe/internal/lab"
	"busprobe/internal/obs"
	"busprobe/internal/probe"
	"busprobe/internal/server"
	"busprobe/internal/store"
)

// Layer names. A span names its layer and the layer that called it;
// self time is a layer's time minus its children's on the same trips.
const (
	layerUpload      = "client.upload"
	layerUploadBatch = "client.upload_batch"
	layerRead        = "client.read"
	layerRead304     = "client.read_304"
	layerHTTPUpload  = "http.upload_handler"
	layerHTTPBatch   = "http.batch_handler"
	layerHTTPTraffic = "http.traffic_handler"
	layerHTTP304     = "http.traffic_304"
	layerProcessTrip = "backend.process_trip"
	layerIngestBatch = "backend.ingest_batch"
	layerSnapLoad    = "traffic.snapshot_load"
	layerAppend      = "store.append"
)

var stageNames = []string{"match", "cluster", "map", "extract", "estimate"}

// tracedAPI wraps the serving API the HTTP handler talks to, so the
// backend's share of a request is a span of its own. Nothing inside
// the server is touched: the handler takes the interface.
type tracedAPI struct {
	server.API
	tr    *tracer
	reads *atomic.Int64
}

func (a tracedAPI) ProcessTrip(ctx context.Context, trip probe.Trip) (server.ProcessedTrip, error) {
	t0 := clk.Now()
	out, err := a.API.ProcessTrip(ctx, trip)
	a.tr.record(obs.TraceID(ctx), layerProcessTrip, layerHTTPUpload, t0, clk.Now())
	return out, err
}

func (a tracedAPI) IngestBatch(ctx context.Context, trips []probe.Trip) []server.TripResult {
	t0 := clk.Now()
	out := a.API.IngestBatch(ctx, trips)
	a.tr.record(obs.TraceID(ctx), layerIngestBatch, layerHTTPBatch, t0, clk.Now())
	return out
}

func (a tracedAPI) TrafficSnapshot() *traffic.Snapshot {
	t0 := clk.Now()
	snap := a.API.TrafficSnapshot()
	a.tr.record(readTrace(a.reads.Load()), layerSnapLoad, layerHTTPTraffic, t0, clk.Now())
	return snap
}

// readTrace names the n-th ledger read (reads carry no trip ID).
func readTrace(n int64) string { return "read-" + strconv.FormatInt(n, 10) }

// tracedLog wraps the backend's trip log so each append is a span.
type tracedLog struct {
	inner  server.TripLog
	tr     *tracer
	parent string
}

func (l tracedLog) Append(ctx context.Context, trip probe.Trip) error {
	t0 := clk.Now()
	err := l.inner.Append(ctx, trip)
	l.tr.record(obs.TraceID(ctx), layerAppend, l.parent, t0, clk.Now())
	return err
}

// tracedHandler wraps the real handler: one span per request, named by
// endpoint, joined to the caller's trace by the X-Busprobe-Trace header.
func tracedHandler(inner http.Handler, tr *tracer, reads *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name, parent string
		trace := r.Header.Get(obs.TraceHeader)
		switch {
		case r.URL.Path == "/v1/trips":
			name, parent = layerHTTPUpload, layerUpload
		case r.URL.Path == "/v1/trips/batch":
			name, parent = layerHTTPBatch, layerUploadBatch
		case r.URL.Path == "/v1/traffic" && r.Header.Get("If-None-Match") != "":
			name, parent, trace = layerHTTP304, layerRead304, readTrace(reads.Add(1))
		case r.URL.Path == "/v1/traffic":
			name, parent, trace = layerHTTPTraffic, layerRead, readTrace(reads.Add(1))
		default:
			inner.ServeHTTP(w, r)
			return
		}
		t0 := clk.Now()
		inner.ServeHTTP(w, r)
		tr.record(trace, name, parent, t0, clk.Now())
	})
}

// stack is one in-process server the ledger times: a backend over a
// store directory behind the real handler on a loopback listener.
type stack struct {
	b     *server.Backend
	log   *server.StoreLog
	srv   *httptest.Server
	cli   *server.Client
	hc    *http.Client
	reads *atomic.Int64
}

// newStack builds a stack. With a tracer, every layer boundary that is
// reachable from outside records spans; parent names the layer stage
// and append spans hang under (single-trip or batch ingest).
func newStack(ctx context.Context, dep *lab.Deployment, dir string, tr *tracer, parent string) (*stack, error) {
	cfg := dep.Cfg
	if tr != nil {
		cfg.StageHook = func(ctx context.Context, name string, _, _, _ int, d time.Duration) {
			end := clk.Now()
			tr.record(obs.TraceID(ctx), "stage."+name, parent, end.Add(-d), end)
		}
	}
	b, err := server.NewBackend(cfg, dep.World.Transit, dep.FPDB)
	if err != nil {
		return nil, err
	}
	s := &stack{b: b, hc: newConn(), reads: new(atomic.Int64)}
	if dir != "" {
		rec, err := server.RecoverBackendStore(ctx, store.Options{Dir: dir, Clock: clk}, "", b)
		if err != nil {
			return nil, err
		}
		s.log = rec.Log()
		if tr != nil {
			b.AttachTripLog(tracedLog{inner: s.log, tr: tr, parent: parent})
		}
	}
	var h http.Handler
	if tr != nil {
		h = tracedHandler(server.NewHandler(tracedAPI{API: b, tr: tr, reads: s.reads}, server.HandlerConfig{}), tr, s.reads)
	} else {
		h = server.NewHandler(b, server.HandlerConfig{})
	}
	s.srv = httptest.NewServer(h)
	s.cli, err = server.NewClient(s.srv.URL, s.hc)
	if err != nil {
		s.close() //lint:allow errcheckio the constructor error is the one reported
		return nil, err
	}
	return s, nil
}

func (s *stack) close() error {
	s.hc.CloseIdleConnections()
	s.srv.Close() //lint:allow errcheckio httptest.Server.Close returns nothing
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}

// uploadAll uploads the trips one request each through server.Client,
// recording a client span per trip when traced, and returns the mean
// round trip in microseconds.
func (s *stack) uploadAll(ctx context.Context, trips []probe.Trip, tr *tracer, midway func() error) (float64, error) {
	var total time.Duration
	for i, t := range trips {
		if midway != nil && i == len(trips)*4/5 {
			if err := midway(); err != nil {
				return 0, err
			}
		}
		tctx := obs.WithTrace(ctx, t.ID)
		t0 := clk.Now()
		err := s.cli.Upload(tctx, t)
		t1 := clk.Now()
		if err != nil {
			return 0, fmt.Errorf("bench: ledger upload %s: %w", t.ID, err)
		}
		total += t1.Sub(t0)
		if tr != nil {
			tr.record(t.ID, layerUpload, "", t0, t1)
		}
	}
	return perCountUs(total, len(trips)), nil
}

// readAll issues n GET /v1/traffic, conditional when etag is set, and
// records a client span per read. It returns the last body and ETag.
func (s *stack) readAll(ctx context.Context, n int, etag string, tr *tracer) ([]byte, string, error) {
	name, want := layerRead, http.StatusOK
	if etag != "" {
		name, want = layerRead304, http.StatusNotModified
	}
	var buf bytes.Buffer
	var body []byte
	var tag string
	for i := 0; i < n; i++ {
		t0 := clk.Now()
		status, h, b, err := get(ctx, s.hc, s.srv.URL+"/v1/traffic", etag, &buf)
		t1 := clk.Now()
		if err != nil || status != want {
			return nil, "", fmt.Errorf("bench: ledger read: status %d, err %v", status, err)
		}
		tr.record(readTrace(s.reads.Load()), name, "", t0, t1)
		body, tag = b, h.Get("ETag")
	}
	return body, tag, nil
}

// timeIt runs fn n times and returns the mean duration.
func timeIt(n int, fn func() error) (time.Duration, error) {
	t0 := clk.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return clock.Since(clk, t0) / time.Duration(n), nil
}

// renderTraffic builds the /v1/traffic body from a snapshot the way
// the handler does (rows, sorted, compact JSON): the standalone cost
// of rendering, which the handler span holds but cannot be split out
// of from outside.
func renderTraffic(snap *traffic.Snapshot, w io.Writer) error {
	rows := make([]server.SegmentEstimateJSON, 0, len(snap.Estimates))
	for sid, est := range snap.Estimates {
		rows = append(rows, server.SegmentEstimateJSON{
			Segment: int(sid), SpeedKmh: est.SpeedKmh, Var: est.Var, Reports: est.Reports,
			UpdatedS: est.UpdatedS, Level: traffic.LevelOf(est.SpeedKmh).String(),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Segment < rows[j].Segment })
	return json.NewEncoder(w).Encode(rows)
}

// copyDir copies a flat directory of regular files.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// storeBytes sums a store directory's newest snapshot and its segments.
func storeBytes(dir string) (snapshot, segments float64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case strings.HasSuffix(e.Name(), ".snap"):
			snapshot = float64(fi.Size()) // ReadDir sorts by name, so the newest wins
		case strings.HasPrefix(e.Name(), "seg-"):
			segments += float64(fi.Size())
		}
	}
	return snapshot, segments, nil
}

// runLedger times every layer on the first ledgerTrips of the stream,
// from outside, and returns the per-layer metrics it can derive alone
// (the proc.*, run.* and mixed.* metrics come from the workload run).
func runLedger(ctx context.Context, c *corpus, sz sizes, tmp string, tr *tracer) (map[string]float64, error) {
	m := make(map[string]float64)
	trips := c.trips[:sz.ledgerTrips]
	n := len(trips)

	// Phone: what encoding a trip costs the uploader, and its size.
	var encBytes int
	encD, err := timeIt(1, func() error {
		for i := range trips {
			body, err := json.Marshal(&trips[i])
			if err != nil {
				return err
			}
			encBytes += len(body)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["phone.encode_us"] = perCountUs(encD, n)
	m["phone.trip_bytes"] = float64(encBytes) / float64(n)

	// Write path, untraced: the same stack with no wrapper anywhere.
	plain, err := newStack(ctx, c.dep, filepath.Join(tmp, "ledger-plain"), nil, "")
	if err != nil {
		return nil, err
	}
	untracedUs, err := plain.uploadAll(ctx, trips, nil, nil)
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Write path, traced. A checkpoint four fifths in leaves a snapshot
	// plus a tail on disk for the store and recovery layers below.
	dir := filepath.Join(tmp, "ledger-traced")
	st, err := newStack(ctx, c.dep, dir, tr, layerProcessTrip)
	if err != nil {
		return nil, err
	}
	defer st.close() //lint:allow errcheckio every append was already flushed per record; the deferred close only releases the file
	var checkpointD time.Duration
	tracedUs, err := st.uploadAll(ctx, trips, tr, func() error {
		t0 := clk.Now()
		err := st.b.Checkpoint()
		checkpointD = clock.Since(clk, t0)
		return err
	})
	if err != nil {
		return nil, err
	}
	tail := n - n*4/5
	m["server.checkpoint_s"] = checkpointD.Seconds()
	m["trace.overhead_pct"] = 100 * (tracedUs/untracedUs - 1)

	// Read path on the same server: full reads, then revalidations.
	body, etag, err := st.readAll(ctx, n, "", tr)
	if err != nil {
		return nil, err
	}
	if _, _, err := st.readAll(ctx, n, etag, tr); err != nil {
		return nil, err
	}
	m["http.traffic_body_bytes"] = float64(len(body))
	// A load takes about a nanosecond: the loop is timed whole and divided
	// as a float, or every run would read the same truncated integer.
	loads := 100 * n
	loadD, err := timeIt(1, func() error {
		for i := 0; i < loads; i++ {
			st.b.TrafficSnapshot()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["traffic.snapshot_load_ns"] = float64(loadD.Nanoseconds()) / float64(loads)
	cloneD, err := timeIt(n, func() error { st.b.Traffic(); return nil })
	if err != nil {
		return nil, err
	}
	m["traffic.clone_us"] = perCountUs(cloneD, 1)
	var rendered bytes.Buffer
	renderD, err := timeIt(n, func() error {
		rendered.Reset()
		return renderTraffic(st.b.TrafficSnapshot(), &rendered)
	})
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(rendered.Bytes(), body) {
		return nil, fmt.Errorf("bench: ledger render differs from the served /v1/traffic body")
	}
	m["http.traffic_render_us"] = perCountUs(renderD, 1)

	// State export and import, as a checkpoint and a recovery do them.
	var blob []byte
	exportD, err := timeIt(1, func() error {
		var err error
		blob, err = json.Marshal(st.b.ExportState())
		return err
	})
	if err != nil {
		return nil, err
	}
	m["server.export_state_s"] = exportD.Seconds()
	importD, err := timeIt(1, func() error {
		var ps server.PersistentState
		if err := json.Unmarshal(blob, &ps); err != nil {
			return err
		}
		fresh, err := c.dep.NewBackend()
		if err != nil {
			return err
		}
		return fresh.ImportState(&ps)
	})
	if err != nil {
		return nil, err
	}
	m["server.import_state_s"] = importD.Seconds()

	// Store and recovery, on copies of the traced store directory (its
	// appends are flushed per record, so the copy is what a crash at
	// this instant would leave).
	m["store.snapshot_bytes"], m["store.log_bytes"], err = storeBytes(dir)
	if err != nil {
		return nil, err
	}
	scanDir := filepath.Join(tmp, "ledger-scan")
	if err := copyDir(dir, scanDir); err != nil {
		return nil, err
	}
	var plan *store.Recovery
	planD, err := timeIt(1, func() error {
		var err error
		plan, err = store.PlanRecovery(store.Options{Dir: scanDir, Clock: clk})
		return err
	})
	if err != nil {
		return nil, err
	}
	scanD, err := timeIt(1, func() error {
		return plan.Replay(ctx, func([]byte) error { return nil })
	})
	if err != nil {
		return nil, err
	}
	m["store.plan_s"] = planD.Seconds()
	m["store.replay_scan_s"] = scanD.Seconds()
	m["store.records_replayed"] = float64(plan.Report.RecordsReplayed)
	recoverDir := filepath.Join(tmp, "ledger-recover")
	if err := copyDir(dir, recoverDir); err != nil {
		return nil, err
	}
	recovered, err := c.dep.NewBackend()
	if err != nil {
		return nil, err
	}
	var rec *server.StoreRecovery
	recoverD, err := timeIt(1, func() error {
		var err error
		rec, err = server.RecoverBackendStore(ctx, store.Options{Dir: recoverDir, Clock: clk}, "", recovered)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := rec.Log().Close(); err != nil {
		return nil, err
	}
	if !rec.SnapshotImported || rec.TripsReplayed != tail {
		return nil, fmt.Errorf("bench: ledger recovery imported=%t replayed=%d, want snapshot + %d", rec.SnapshotImported, rec.TripsReplayed, tail)
	}
	m["server.recover_s"] = recoverD.Seconds()

	// Batch path, traced, on a fresh stack.
	bst, err := newStack(ctx, c.dep, filepath.Join(tmp, "ledger-batch"), tr, layerIngestBatch)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i += sz.batch {
		j := min(i+sz.batch, n)
		trace := "batch-" + trips[i].ID
		t0 := clk.Now()
		errs := bst.cli.UploadBatch(obs.WithTrace(ctx, trace), trips[i:j])
		tr.record(trace, layerUploadBatch, "", t0, clk.Now())
		for _, err := range errs {
			if err != nil {
				bst.close() //lint:allow errcheckio the upload error is the one reported
				return nil, fmt.Errorf("bench: ledger batch upload: %w", err)
			}
		}
	}
	if err := bst.close(); err != nil {
		return nil, err
	}

	// Pipeline alone: no store, no HTTP; then the same through a
	// one-shard coordinator, which must cost what the backend costs.
	bare, err := c.dep.NewBackend()
	if err != nil {
		return nil, err
	}
	i := 0
	bareD, err := timeIt(n, func() error {
		_, err := bare.ProcessTrip(ctx, trips[i])
		i++
		return err
	})
	if err != nil {
		return nil, err
	}
	m["backend.process_trip_us"] = perCountUs(bareD, 1)
	coord, err := c.dep.NewCoordinator(1)
	if err != nil {
		return nil, err
	}
	i = 0
	coordD, err := timeIt(n, func() error {
		_, err := coord.ProcessTrip(ctx, trips[i])
		i++
		return err
	})
	if err != nil {
		return nil, err
	}
	m["coordinator.process_trip_us"] = perCountUs(coordD, 1)
	par, err := c.dep.NewBackend()
	if err != nil {
		return nil, err
	}
	parD, err := timeIt(1, func() error {
		for _, res := range par.ProcessTrips(ctx, trips, runtime.GOMAXPROCS(0)) {
			if res.Err != nil {
				return res.Err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["backend.process_trips_us_per_trip"] = perCountUs(parD, n)

	// Span digest: means, self times, and what stays unattributed.
	spans := tr.snapshot()
	lt := digest(spans)
	single := digest(spansUnder(spans, layerProcessTrip))
	m["client.upload_wire_us"] = lt.selfUs(layerUpload)
	m["client.read_wire_us"] = lt.selfUs(layerRead)
	m["http.upload_handler_us"] = lt.meanUs(layerHTTPUpload)
	m["http.batch_handler_us_per_trip"] = perCountUs(lt.total[layerHTTPBatch], n)
	m["http.traffic_handler_us"] = lt.meanUs(layerHTTPTraffic)
	m["http.traffic_304_us"] = lt.meanUs(layerHTTP304)
	m["backend.process_trip_store_us"] = lt.meanUs(layerProcessTrip)
	m["store.append_us"] = single.meanUs(layerAppend)
	for _, s := range stageNames {
		m["stage."+s+"_us"] = perCountUs(single.total["stage."+s], n)
	}
	m["ledger.write_unattributed_pct"] = 100 * float64(lt.self[layerProcessTrip]) / float64(lt.total[layerUpload])
	readAttributed := lt.self[layerRead] + lt.total[layerSnapLoad] + renderD*time.Duration(lt.count[layerRead])
	m["ledger.read_unattributed_pct"] = 100 * float64(lt.total[layerRead]-readAttributed) / float64(lt.total[layerRead])
	restartAttributed := planD + scanD + importD + bareD*time.Duration(tail)
	m["ledger.restart_unattributed_pct"] = 100 * float64(recoverD-restartAttributed) / float64(recoverD)
	return m, nil
}

// spansUnder keeps the spans whose parent is the given layer.
func spansUnder(spans []span, parent string) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == parent {
			out = append(out, s)
		}
	}
	return out
}
