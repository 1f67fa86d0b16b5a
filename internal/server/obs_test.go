package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/faults"
	"busprobe/internal/obs"
	"busprobe/internal/probe"
)

var obsEpoch = time.Date(2015, 6, 29, 0, 0, 0, 0, time.UTC)

func fakeObsCore() *obs.Core {
	return obs.NewCore(clock.NewFake(obsEpoch, time.Microsecond))
}

// TestTrafficByteIdenticalWithObs is the acceptance bar for the
// observability layer: enabling it must not perturb the product. The
// same corpus replayed through an instrumented and a bare deployment —
// monolithic and 4-shard — must yield byte-identical /v1/traffic.
func TestTrafficByteIdenticalWithObs(t *testing.T) {
	w, fpdb := twinWorld(t)
	trips := twinCorpus(t, w, faults.Config{})

	bare, err := NewBackend(DefaultConfig(), w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}
	obsCfg := DefaultConfig()
	obsCfg.Obs = fakeObsCore()
	instrumented, err := NewBackend(obsCfg, w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}

	fourBare := newTwinCoordinator(t, w, fpdb, 4)
	fourObsCfg := DefaultConfig()
	fourObsCfg.Obs = fakeObsCore()
	fourObs, err := NewCoordinator(fourObsCfg, w.Transit, fpdb, 4)
	if err != nil {
		t.Fatal(err)
	}

	for _, api := range []API{bare, instrumented, fourBare, fourObs} {
		replayInto(t, api, trips)
		api.Advance(3 * clock.DayS)
	}

	want := trafficBytes(t, bare)
	if len(bare.Traffic()) == 0 {
		t.Fatal("campaign produced no estimates; equivalence is vacuous")
	}
	if got := trafficBytes(t, instrumented); !bytes.Equal(got, want) {
		t.Errorf("monolith /v1/traffic changed with observability enabled")
	}
	if got := trafficBytes(t, fourBare); !bytes.Equal(got, want) {
		t.Errorf("bare 4-shard /v1/traffic differs from monolith")
	}
	if got := trafficBytes(t, fourObs); !bytes.Equal(got, want) {
		t.Errorf("instrumented 4-shard /v1/traffic differs from monolith")
	}

	// The instrumentation must actually have fired.
	if obsCfg.Obs.Tracer.Emitted() == 0 {
		t.Error("monolith tracer emitted no spans")
	}
	if fourObsCfg.Obs.Tracer.Emitted() == 0 {
		t.Error("sharded tracer emitted no spans")
	}
}

// TestTripTraceReconstruction ingests clean trips through every entry
// point of the ingest kernel and reconstructs each trip's path from its
// trace: every pipeline stage it crossed appears as a span of the
// trip's deterministic trace, in execution order, tagged with the owning
// shard, and the enclosing "trip" span closes the trace. Every row
// ingests two trips, so the worker clamp cannot hide the pooled path.
func TestTripTraceReconstruction(t *testing.T) {
	w := testWorld(t)
	ids := []string{"traced-1", "traced-2"}
	var trips []probe.Trip
	for _, id := range ids {
		trip, _ := rideTrip(t, w, 0, 0, 5, id)
		trips = append(trips, trip)
	}
	batchErrs := func(res []TripResult) error {
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	rows := []struct {
		name   string
		ingest func(b *Backend) error
	}{
		{"ProcessTrip", func(b *Backend) error {
			for _, trip := range trips {
				if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ProcessTrips-workers-1", func(b *Backend) error {
			return batchErrs(b.ProcessTrips(context.Background(), trips, 1))
		}},
		{"ProcessTrips-workers-4", func(b *Backend) error {
			return batchErrs(b.ProcessTrips(context.Background(), trips, 4))
		}},
		{"IngestBatch", func(b *Backend) error {
			return batchErrs(b.IngestBatch(context.Background(), trips))
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, DefaultConfig(), 7)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			core := fakeObsCore()
			cfg.Obs = core
			b, err := NewBackend(cfg, w.Transit, fpdb)
			if err != nil {
				t.Fatal(err)
			}
			if err := row.ingest(b); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				checkTripTrace(t, core.Tracer.Spans(obs.TripTrace(id)))
			}
		})
	}
}

// checkTripTrace checks one trip's reconstructed trace.
func checkTripTrace(t *testing.T, spans []obs.Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans for the trip trace")
	}
	var names []string
	for i, sp := range spans {
		if sp.Span != i {
			t.Errorf("span %d has index %d; per-trace indices must be sequential", i, sp.Span)
		}
		names = append(names, sp.Name)
		shard := ""
		for _, a := range sp.Attrs {
			if a.Key == "shard" {
				shard = a.Value
			}
		}
		if shard != "0" {
			t.Errorf("span %q shard attr = %q, want \"0\"", sp.Name, shard)
		}
		if sp.End.Before(sp.Start) {
			t.Errorf("span %q ends before it starts", sp.Name)
		}
	}
	// The full Fig. 4 path in pipeline order, then the enclosing trip
	// span last.
	want := []string{"stage.match", "stage.cluster", "stage.map", "stage.extract", "stage.estimate", "trip"}
	if !slices.Equal(names, want) {
		t.Errorf("trace spans = %v, want %v", names, want)
	}
}

// TestObsDeterministic: the pipeline times its stages on the
// observability core's clock — the one clock behind stage durations,
// histograms and spans — so the same trips ingested into two fresh
// backends on equal fake clocks leave identical span timelines and a
// byte-identical scrape.
func TestObsDeterministic(t *testing.T) {
	w := testWorld(t)
	trips := batchCorpus(t, w, 6)
	type timeline struct {
		Trace, Name string
		Start, End  time.Time
	}
	run := func() ([]timeline, string) {
		fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, DefaultConfig(), 7)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		core := fakeObsCore()
		cfg.Obs = core
		b, err := NewBackend(cfg, w.Transit, fpdb)
		if err != nil {
			t.Fatal(err)
		}
		replayInto(t, b, trips[:3])
		for i, r := range b.ProcessTrips(context.Background(), trips[3:], 1) {
			if r.Err != nil {
				t.Fatalf("batch trip %d: %v", i, r.Err)
			}
		}
		var tl []timeline
		for _, sp := range core.Tracer.Snapshot() {
			tl = append(tl, timeline{sp.Trace, sp.Name, sp.Start, sp.End})
		}
		h := NewHandler(b, HandlerConfig{Obs: core})
		for i := 0; i < 2; i++ { // two reads of one version: one render
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/traffic", nil))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics status = %d", rec.Code)
		}
		return tl, rec.Body.String()
	}
	tl1, scrape1 := run()
	tl2, scrape2 := run()
	if len(tl1) != 6*len(trips) {
		t.Fatalf("recorded %d spans, want %d (five stages + the trip span per trip)", len(tl1), 6*len(trips))
	}
	if !slices.Equal(tl1, tl2) {
		t.Errorf("span timelines differ between identical runs:\n%v\nvs\n%v", tl1, tl2)
	}
	if scrape1 != scrape2 {
		t.Errorf("/metrics differs between identical runs:\n%s\nvs\n%s", scrape1, scrape2)
	}
	if !strings.Contains(scrape1, "busprobe_stage_duration_seconds_sum") {
		t.Error("scrape lacks the stage duration histograms; the comparison is vacuous")
	}
	if want := "busprobe_traffic_renders_total 1\n"; !strings.Contains(scrape1, want) {
		t.Errorf("scrape lacks %q after two reads of one version", want)
	}
}

// TestHTTPTraceHeaderJoinsSpans checks the wire contract: a caller
// sending X-Busprobe-Trace sees the pipeline's spans under its own
// trace ID instead of the trip-derived one.
func TestHTTPTraceHeaderJoinsSpans(t *testing.T) {
	w := testWorld(t)
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	core := fakeObsCore()
	cfg.Obs = core
	b, err := NewBackend(cfg, w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(b, HandlerConfig{Obs: core})

	trip, _ := rideTrip(t, w, 0, 0, 5, "hdr-1")
	body, err := json.Marshal(trip)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/trips", bytes.NewReader(body))
	req.Header.Set(obs.TraceHeader, "req-abc")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("upload status = %d: %s", rec.Code, rec.Body.String())
	}

	if spans := core.Tracer.Spans("req-abc"); len(spans) == 0 {
		t.Error("no spans joined the caller-provided trace")
	}
	if spans := core.Tracer.Spans(obs.TripTrace("hdr-1")); len(spans) != 0 {
		t.Error("trip-derived trace used despite a caller-provided trace ID")
	}
}

// TestMetricsEndpointExposition uploads through the instrumented
// handler and checks the scrape: backend counters, stage histograms,
// and HTTP series all expose, and repeated scrapes of a quiescent
// backend are byte-stable under the fake clock.
func TestMetricsEndpointExposition(t *testing.T) {
	w := testWorld(t)
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	core := fakeObsCore()
	cfg.Obs = core
	b, err := NewBackend(cfg, w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(b, HandlerConfig{Obs: core})

	trip, _ := rideTrip(t, w, 0, 0, 5, "scrape-1")
	body, err := json.Marshal(trip)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trips", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("upload status = %d", rec.Code)
	}

	scrape := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics status = %d", rec.Code)
		}
		return rec.Body.String()
	}
	got := scrape()
	for _, want := range []string{
		`busprobe_trips_received_total{shard="0"} 1`,
		`busprobe_stage_runs_total{shard="0",stage="match"} 1`,
		`busprobe_stage_duration_seconds_bucket{shard="0",stage="estimate",le="+Inf"}`,
		`busprobe_stage_runs_total{shard="0",stage="admission"}`,
		`busprobe_http_requests_total{path="/v1/trips"} 1`,
		"# TYPE busprobe_stage_duration_seconds histogram",
		"# TYPE busprobe_traffic_renders_total counter",
		"busprobe_traffic_renders_total 0\n", // nothing has read the map yet
		"# TYPE busprobe_estimator_windows gauge",
		"# TYPE busprobe_estimator_window_folds_total counter",
		`busprobe_estimator_late_dropped_total{shard="0"} 0`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scrape lacks %q", want)
		}
	}

	// Quiescent backend, fake clock: /v1/stats projections and
	// histograms must not drift between scrapes... except the HTTP
	// series counting the scrapes themselves; mask those lines.
	stable := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "busprobe_http_") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if a, b := stable(scrape()), stable(scrape()); a != b {
		t.Errorf("quiescent scrapes differ:\n%s\nvs\n%s", a, b)
	}

	// A shard's read side is its public API, so a coordinator tier's
	// fan-in shows in the shard's own HTTP series: one coordinator
	// /v1/traffic read is one counted /v1/traffic request on the shard.
	if strings.Contains(got, `busprobe_http_requests_total{path="/v1/traffic"}`) {
		t.Fatal("shard already counted a /v1/traffic read; the fan-in check is vacuous")
	}
	srv := httptest.NewServer(NewShardHandler(b, HandlerConfig{Obs: core}))
	defer srv.Close()
	coord, err := NewRemoteCoordinator(DefaultConfig(), w.Transit, fpdb, []string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	Handler(coord).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traffic", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("coordinator /v1/traffic status = %d", rec.Code)
	}
	// ... and that read is what rendered the shard's version, once.
	after := scrape()
	for _, want := range []string{
		`busprobe_http_requests_total{path="/v1/traffic"} 1`,
		"busprobe_traffic_renders_total 1\n",
	} {
		if !strings.Contains(after, want) {
			t.Errorf("shard scrape after a coordinator read lacks %q", want)
		}
	}
}

// TestPprofGate: the profiling surface only exists when asked for.
func TestPprofGate(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)

	on := NewHandler(b, HandlerConfig{Pprof: true})
	rec := httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof index with -pprof = %d, want 200", rec.Code)
	}

	off := NewHandler(b, HandlerConfig{})
	rec = httptest.NewRecorder()
	off.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code == http.StatusOK {
		t.Errorf("pprof index without -pprof = %d, want non-200", rec.Code)
	}
}

// TestProcessTripHonorsContext: a canceled request context must stop
// admission before any state changes.
func TestProcessTripHonorsContext(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	trip, _ := rideTrip(t, w, 0, 0, 5, "ctx-1")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.ProcessTrip(ctx, trip); err == nil {
		t.Fatal("ProcessTrip accepted a trip on a canceled context")
	}
	if st := b.Stats(); st.TripsReceived != 0 {
		t.Errorf("canceled upload still counted: %+v", st)
	}
	// The same trip must remain ingestible afterwards (no dedup residue).
	if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
		t.Fatalf("trip poisoned by canceled attempt: %v", err)
	}
}
