package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"busprobe/internal/cellular"
	"busprobe/internal/clock"
	"busprobe/internal/core/arrival"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/traffic"
	"busprobe/internal/probe"
	"busprobe/internal/server/stage"
	"busprobe/internal/sim"
	"busprobe/internal/stats"
	"busprobe/internal/store"
	"busprobe/internal/transit"
)

// testWorldSeed is the world seed whose derived survey seed is 7, the
// seed the server tests' fingerprint DBs have always been surveyed under.
const testWorldSeed = 7 ^ 0xf9

// testWorld builds a compact world shared by the server tests.
func testWorld(t *testing.T) *sim.World {
	t.Helper()
	cfg := sim.DefaultWorldConfig()
	cfg.Road.WidthM = 3000
	cfg.Road.HeightM = 2000
	cfg.Plan.RouteIDs = []transit.RouteID{"179", "243"}
	cfg.Plan.MinStops = 6
	cfg.Plan.MaxStops = 10
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testBackend(t *testing.T, w *sim.World) *Backend {
	t.Helper()
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, testWorldSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(Config{}, w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rideTrip fabricates a realistic trip along a route: samples at each
// visited stop with scans taken at the platform, 2 beeps per stop.
func rideTrip(t *testing.T, w *sim.World, routeIdx, from, to int, id string) (probe.Trip, []transit.StopID) {
	t.Helper()
	rt := w.Transit.Routes()[routeIdx]
	if to > rt.NumStops()-1 {
		to = rt.NumStops() - 1
	}
	rng := stats.NewRNG(99).Fork(id)
	trip := probe.Trip{ID: id, DeviceID: "dev-test"}
	var truth []transit.StopID
	timeS := 8 * 3600.0
	for i := from; i <= to; i++ {
		stop := w.Transit.Stop(rt.Stops[i])
		truth = append(truth, stop.ID)
		for k := 0; k < 2; k++ {
			readings := w.Cells.Scan(stop.Pos, cellular.Condition{OnBus: true}, rng)
			trip.Samples = append(trip.Samples, probe.Sample{
				TimeS:    timeS + float64(k)*3,
				Readings: readings,
			})
		}
		timeS += 70 + rng.Range(0, 20) // drive to next stop
	}
	return trip, truth
}

func TestBuildFingerprintDBCoversAllStops(t *testing.T) {
	w := testWorld(t)
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, testWorldSeed)
	if err != nil {
		t.Fatal(err)
	}
	if fpdb.Len() != w.Transit.NumStops() {
		t.Errorf("fingerprinted %d of %d stops", fpdb.Len(), w.Transit.NumStops())
	}
	if _, err := BuildFingerprintDB(w.Cells, w.Transit, 0, testWorldSeed); err == nil {
		t.Error("want error for zero runs")
	}
	if _, err := BuildFingerprintDB(nil, w.Transit, 2, testWorldSeed); err == nil {
		t.Error("want error for nil deployment")
	}
}

func TestBackendValidation(t *testing.T) {
	w := testWorld(t)
	fpdb, err := fingerprint.NewDB(fingerprint.DefaultScoring(), fingerprint.DefaultGamma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBackend(Config{}, nil, fpdb); err == nil {
		t.Error("want error for nil transit DB")
	}
	if _, err := NewBackend(Config{MaxInflightBatches: -1}, w.Transit, fpdb); err == nil {
		t.Error("want error for negative max inflight batches")
	}
}

func TestPipelineMapsCleanTrip(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	trip, truth := rideTrip(t, w, 0, 1, 6, "trip-clean")
	res, err := b.ProcessTrip(context.Background(), trip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != len(trip.Samples) {
		t.Errorf("samples = %d", res.Samples)
	}
	if len(res.Visits) < len(truth)-1 {
		t.Fatalf("mapped %d visits, truth has %d stops", len(res.Visits), len(truth))
	}
	// Count correctly identified stops (order-aligned tolerant check:
	// each mapped visit should be in the truth sequence).
	correct := 0
	for i, v := range res.Visits {
		if i < len(truth) && v.Stop == truth[i] {
			correct++
		}
	}
	if correct < len(res.Visits)*7/10 {
		t.Errorf("only %d/%d visits correct (truth %v, got %+v)",
			correct, len(res.Visits), truth, res.Visits)
	}
	if res.Observations == 0 {
		t.Error("no traffic observations extracted")
	}
	b.Advance(9 * 3600)
	if len(b.Traffic()) == 0 {
		t.Error("no traffic estimates after advance")
	}
}

func TestTrafficSpeedPlausible(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	trip, _ := ridLongTrip(t, w)
	if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	b.Advance(10 * 3600)
	for sid, est := range b.Traffic() {
		if est.SpeedKmh < 2 || est.SpeedKmh > 90 {
			t.Errorf("segment %d speed %v implausible", sid, est.SpeedKmh)
		}
	}
}

// ridLongTrip is rideTrip over most of route 0.
func ridLongTrip(t *testing.T, w *sim.World) (probe.Trip, []transit.StopID) {
	rt := w.Transit.Routes()[0]
	return rideTrip(t, w, 0, 0, rt.NumStops()-1, "trip-long")
}

func TestDuplicateTripRejected(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	trip, _ := rideTrip(t, w, 0, 1, 4, "trip-dup")
	if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProcessTrip(context.Background(), trip); err == nil {
		t.Error("duplicate accepted")
	}
	if b.Stats().DuplicateTrips != 1 {
		t.Errorf("stats = %+v", b.Stats())
	}
}

func TestInvalidTripRejected(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	bad := probe.Trip{ID: "", Samples: nil}
	if _, err := b.ProcessTrip(context.Background(), bad); err == nil {
		t.Error("invalid trip accepted")
	}
	if b.Stats().TripsRejected != 1 {
		t.Errorf("stats = %+v", b.Stats())
	}
}

func TestNoiseSamplesDiscarded(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	// Fabricate a trip whose samples carry junk cell IDs unseen in the
	// database: all samples fall below gamma and are dropped.
	trip := probe.Trip{ID: "junk", DeviceID: "d"}
	for i := 0; i < 5; i++ {
		trip.Samples = append(trip.Samples, probe.Sample{
			TimeS: float64(100 + i*40),
			Readings: []cellular.Reading{
				{Cell: cellular.CellID(900001 + i), RSS: -60},
				{Cell: cellular.CellID(900100 + i), RSS: -70},
			},
		})
	}
	res, err := b.ProcessTrip(context.Background(), trip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 0 || len(res.Visits) != 0 {
		t.Errorf("junk trip produced matches: %+v", res)
	}
	if b.Stats().SamplesDiscarded != 5 {
		t.Errorf("stats = %+v", b.Stats())
	}
}

func TestCampaignIntoBackend(t *testing.T) {
	// Full integration: simulated campaign uploads into the backend
	// in-process; the backend produces a traffic map.
	w := testWorld(t)
	b := testBackend(t, w)
	cfg := sim.DefaultCampaignConfig()
	cfg.Days = 1
	cfg.Participants = 8
	cfg.SparseTripsPerDay = 4
	cfg.IntensiveFromDay = 99
	camp, err := sim.NewCampaign(w, cfg, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	b.Advance(clock.DayS)
	st := b.Stats()
	if st.TripsReceived == 0 || st.VisitsMapped == 0 {
		t.Fatalf("backend saw nothing: %+v", st)
	}
	if st.Observations == 0 {
		t.Fatalf("no observations: %+v", st)
	}
	snap := b.Traffic()
	if len(snap) == 0 {
		t.Fatal("empty traffic map")
	}
	// Matched share should be high: the radio model and matcher are
	// tuned so most samples clear gamma.
	matchRate := float64(st.SamplesMatched) / float64(st.SamplesReceived)
	if matchRate < 0.7 {
		t.Errorf("match rate = %v", matchRate)
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()

	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	if !client.Healthy(context.Background()) {
		t.Fatal("backend not healthy")
	}
	trip, _ := rideTrip(t, w, 0, 0, 5, "http-trip")
	if err := client.Upload(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	b.Advance(10 * 3600)
	rows, err := client.Traffic(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no traffic rows over HTTP")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Segment < rows[i-1].Segment {
			t.Fatal("rows not sorted")
		}
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.TripsReceived != 1 {
		t.Errorf("stats over HTTP = %+v", st)
	}
	// Duplicate via HTTP is a 422.
	if err := client.Upload(context.Background(), trip); err == nil {
		t.Error("duplicate accepted over HTTP")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()

	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/trips", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON gave %d", resp.StatusCode)
	}
	// Wrong method: every route is registered under its one verb, on the
	// public surface and on a shard process's internal wire alike. The
	// cases are the route tables themselves, so a new route is covered
	// the day it is added.
	shard := NewShardHandler(b, HandlerConfig{})
	for _, c := range []struct {
		h      http.Handler
		routes []route
	}{
		{Handler(b), publicRoutes(b, HandlerConfig{})},
		{shard, publicRoutes(b, HandlerConfig{})},
		{shard, shardRoutes(b)},
	} {
		for _, rt := range c.routes {
			wrong := http.MethodPost
			if rt.method == http.MethodPost {
				wrong = http.MethodGet
			}
			rec := httptest.NewRecorder()
			c.h.ServeHTTP(rec, httptest.NewRequest(wrong, rt.path, strings.NewReader("{}")))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s gave %d, want 405", wrong, rt.path, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); !strings.Contains(allow, rt.method) {
				t.Errorf("%s %s: 405 with Allow %q, want %s", wrong, rt.path, allow, rt.method)
			}
		}
	}
	if n := len(shardRoutes(b)); n != 3 {
		t.Errorf("internal wire has %d routes, want the three writes", n)
	}
	// A shard's read side is the public API: the internal GETs are gone,
	// and so is the clock write (a shard process owns its clock).
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/internal/v1/traffic"},
		{http.MethodGet, "/internal/v1/stats"},
		{http.MethodGet, "/internal/v1/pipeline"},
		{http.MethodGet, "/internal/v1/ready"},
		{http.MethodPost, "/internal/v1/advance"},
	} {
		rec := httptest.NewRecorder()
		shard.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader("0")))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s on a shard gave %d, want 404", r.method, r.path, rec.Code)
		}
	}
	// Malformed and non-finite query parameters: strconv parses NaN and
	// Inf, which would otherwise reach a response body JSON cannot
	// encode (a 200 with no body) or a duration conversion.
	for _, path := range []string{
		"/v1/routes?depart=NaN", "/v1/routes?depart=Inf", "/v1/routes?depart=-inf",
		"/v1/arrivals?route=179&stop=0&depart=NaN", "/v1/arrivals?route=179&stop=0&depart=Inf",
		"/v1/traffic/watch?waitS=NaN", "/v1/traffic/watch?waitS=Inf", "/v1/traffic/watch?waitS=-1",
		"/v1/traffic/watch?since=abc",
	} {
		rec := httptest.NewRecorder()
		Handler(b).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s gave %d, want 400", path, rec.Code)
		}
	}
	// Unknown segment.
	resp, err = http.Get(srv.URL + "/v1/traffic/segment?id=99999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown segment gave %d", resp.StatusCode)
	}
	// Bad segment id.
	resp, err = http.Get(srv.URL + "/v1/traffic/segment?id=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad segment id gave %d", resp.StatusCode)
	}
}

func TestHTTPSegmentEndpoint(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()
	trip, _ := ridLongTrip(t, w)
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Upload(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	b.Advance(12 * 3600)
	rows, err := client.Traffic(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	var got SegmentEstimateJSON
	resp, err := http.Get(srv.URL + "/v1/traffic/segment?id=" + strconv.Itoa(rows[0].Segment))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.SpeedKmh-rows[0].SpeedKmh) > 1e-9 {
		t.Errorf("segment endpoint mismatch: %v vs %v", got.SpeedKmh, rows[0].SpeedKmh)
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient("", nil); err == nil {
		t.Error("want error for empty URL")
	}
	c, err := NewClient("http://127.0.0.1:1", nil) // nothing listening
	if err != nil {
		t.Fatal(err)
	}
	if c.Healthy(context.Background()) {
		t.Error("dead endpoint reported healthy")
	}
	if err := c.Upload(context.Background(), probe.Trip{ID: "x", Samples: []probe.Sample{{TimeS: 1, Readings: []cellular.Reading{{Cell: 1, RSS: -60}}}}}); err == nil {
		t.Error("upload to dead endpoint succeeded")
	}
}

func TestHTTPRegionAndArrivals(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	// Before any estimates: region inference is unavailable (503).
	if _, err := getJSON[RegionJSON](context.Background(), client, "/v1/region"); err == nil {
		t.Error("region should fail with no estimates")
	}
	trip, _ := ridLongTrip(t, w)
	if err := client.Upload(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	b.Advance(12 * 3600)
	region, err := getJSON[RegionJSON](context.Background(), client, "/v1/region")
	if err != nil {
		t.Fatal(err)
	}
	if region.OverallIndex <= 0 || region.OverallIndex >= 1.2 {
		t.Errorf("overall index = %v", region.OverallIndex)
	}
	if region.CoveredZones == 0 {
		t.Error("no covered zones")
	}

	rt := w.Transit.Routes()[0]
	preds, err := getJSON[[]arrival.Prediction](context.Background(), client, "/v1/arrivals?route="+string(rt.ID)+"&stop=0&depart=46800")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != rt.NumStops()-1 {
		t.Fatalf("predictions = %d", len(preds))
	}
	prev := 13 * 3600.0
	for _, p := range preds {
		if p.ArriveS <= prev {
			t.Fatal("ETAs not increasing")
		}
		prev = p.ArriveS
	}
	// Bad requests.
	for _, path := range []string{
		"/v1/arrivals",
		"/v1/arrivals?route=&stop=0&depart=1",
		"/v1/arrivals?route=" + string(rt.ID) + "&stop=abc&depart=1",
		"/v1/arrivals?route=" + string(rt.ID) + "&stop=0&depart=xyz",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s gave %d", path, resp.StatusCode)
		}
	}
	// Unknown route is a 422.
	resp, err := http.Get(srv.URL + "/v1/arrivals?route=nope&stop=0&depart=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown route gave %d", resp.StatusCode)
	}
}

func TestHTTPRouteStatuses(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()
	trip, _ := ridLongTrip(t, w)
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Upload(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	b.Advance(12 * 3600)

	var rows []RouteStatus
	resp, err := http.Get(srv.URL + "/v1/routes?depart=46800")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != w.Transit.NumRoutes() {
		t.Fatalf("routes = %d", len(rows))
	}
	for _, r := range rows {
		if r.EndToEndS <= 0 || r.LengthM <= 0 || r.Stops < 2 {
			t.Errorf("degenerate route status %+v", r)
		}
		if r.CoveredFrac < 0 || r.CoveredFrac > 1 {
			t.Errorf("covered frac %v", r.CoveredFrac)
		}
	}
	// Route 0 carried the trip, so it should have live coverage.
	if rows[0].CoveredFrac == 0 {
		t.Error("probed route has no live coverage")
	}
	// Missing depart is a 400.
	resp2, err := http.Get(srv.URL + "/v1/routes")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("missing depart gave %d", resp2.StatusCode)
	}
}

// countingAPI counts snapshot loads on their way to the wrapped API.
type countingAPI struct {
	API
	loads atomic.Int64
}

func (c *countingAPI) TrafficSnapshot() *traffic.Snapshot {
	c.loads.Add(1)
	return c.API.TrafficSnapshot()
}

func TestDerivedReadsLoadOneSnapshot(t *testing.T) {
	// A derived read that consults the map more than once can race ingest
	// and mix segment estimates from two versions. Each must go through
	// TrafficSnapshot — never around it to a live estimator — and load it
	// exactly once per request, whatever implements API.
	w := testWorld(t)
	b := testBackend(t, w)
	trip, _ := ridLongTrip(t, w)
	if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	b.Advance(12 * 3600)
	var covered int
	for sid := range b.TrafficSnapshot().Estimates {
		covered = int(sid)
		break
	}
	api := &countingAPI{API: b}
	h := Handler(api)
	rt := w.Transit.Routes()[0]
	for _, path := range []string{
		"/v1/traffic",
		"/v1/traffic/segment?id=" + strconv.Itoa(covered),
		"/v1/region",
		"/v1/routes?depart=46800",
		"/v1/arrivals?route=" + string(rt.ID) + "&stop=0&depart=46800",
	} {
		before := api.loads.Load()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status = %d", path, rec.Code)
		}
		if n := api.loads.Load() - before; n != 1 {
			t.Errorf("%s loaded the traffic snapshot %d times, want exactly 1", path, n)
		}
	}
}

func TestServingSurface(t *testing.T) {
	// The two interfaces every topology restates must not silently
	// regrow: API carries only what the HTTP edge calls (a new derived
	// read is a function of (Transit, TrafficSnapshot), not an API
	// method), and Shard carries only what the coordinator dispatches.
	if n := reflect.TypeOf((*API)(nil)).Elem().NumMethod(); n > 7 {
		t.Errorf("API declares %d methods, want at most 7", n)
	}
	if n := reflect.TypeOf((*Shard)(nil)).Elem().NumMethod(); n > 7 {
		t.Errorf("Shard declares %d methods, want at most 7", n)
	}
	// The configuration surface carries only what deployments set: the
	// algorithm runs the paper's constants, so no option can make two
	// processes compute different maps from the same trips.
	for _, c := range []struct {
		typ reflect.Type
		max int
	}{
		{reflect.TypeOf(Config{}), 3},
		{reflect.TypeOf(HandlerConfig{}), 3},
		{reflect.TypeOf(stage.Config{}), 2},
		{reflect.TypeOf(store.Options{}), 4},
	} {
		if n := c.typ.NumField(); n > c.max {
			t.Errorf("%v has %d fields, want at most %d", c.typ, n, c.max)
		}
	}
}

// TestBuildFingerprintDBDerivesSurveySeed pins the one derivation every
// process surveying a city shares: BuildFingerprintDB under world seed 5
// writes the bytes the survey wrote when each caller passed the derived
// seed itself (worldSeed ^ 0xf9, the paper's scoring and γ).
func TestBuildFingerprintDBDerivesSurveySeed(t *testing.T) {
	const want = "75542c52becc1c23e4212b886a96a07cc07a6ed495bd62d65c173438d7e130d2"
	w := testWorld(t)
	db, err := BuildFingerprintDB(w.Cells, w.Transit, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("surveyed DB digest %s, want %s", got, want)
	}
}

// TestDocsNameRealSurface holds the prose to the code: every /v1 path
// and busprobe_* metric the docs name is served (a route) or exposed (a
// scrape of an instrumented coordinator), and every route is in
// busprobe-server's endpoint list. A name ending in / or _ is a prefix.
func TestDocsNameRealSurface(t *testing.T) {
	w, fpdb := twinWorld(t)
	core := fakeObsCore()
	c, err := NewCoordinator(Config{Obs: core}, w.Transit, fpdb, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(c, HandlerConfig{Obs: core})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/traffic", nil))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var metrics, paths []string
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(rec.Body.String(), -1) {
		metrics = append(metrics, m[1])
	}
	for _, rt := range publicRoutes(c, HandlerConfig{}) {
		paths = append(paths, rt.path)
	}
	known := func(name string, real []string) bool {
		prefix := strings.HasSuffix(name, "/") || strings.HasSuffix(name, "_")
		for _, r := range real {
			if r == name || prefix && strings.HasPrefix(r, name) {
				return true
			}
		}
		return false
	}

	pathRE := regexp.MustCompile(`(?:^|[^\w/])(/v1/[\w/]*)`)
	metricRE := regexp.MustCompile(`busprobe_\w*`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pathRE.FindAllStringSubmatch(string(text), -1) {
			if !known(m[1], paths) {
				t.Errorf("%s names %s, which no public route serves", doc, m[1])
			}
		}
		for _, name := range metricRE.FindAllString(string(text), -1) {
			if !known(name, metrics) {
				t.Errorf("%s names metric %s, which an instrumented coordinator does not expose", doc, name)
			}
		}
	}

	// Every -flag a doc passes to a busprobe command is one that
	// command defines, and every "N-method" claim a doc makes about API
	// is its real method count. Each scanner must see a stale line, or
	// its check is vacuous.
	flags := commandFlags(t)
	if stale := staleDocFlags("`busprobe-server -addr x -no-such-flag`", flags); len(stale) != 1 {
		t.Fatalf("flag scanner found %v in a line with one stale flag", stale)
	}
	if claims := apiMethodClaims("the 9-method serving `API` and `API` is a 9-method kernel"); len(claims) != 2 || claims[0] != 9 || claims[1] != 9 {
		t.Fatalf("method-count scanner found %v in a line with two claims of 9", claims)
	}
	apiMethods := reflect.TypeOf((*API)(nil)).Elem().NumMethod()
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, stale := range staleDocFlags(string(text), flags) {
			t.Errorf("%s: %s", doc, stale)
		}
		for _, n := range apiMethodClaims(string(text)) {
			if n != apiMethods {
				t.Errorf("%s calls API %d-method; it declares %d methods", doc, n, apiMethods)
			}
		}
	}

	src, err := os.ReadFile(filepath.Join("..", "..", "cmd", "busprobe-server", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^//\s+(GET|POST)\s+([^\s?]+)`).FindAllStringSubmatch(string(src), -1) {
		listed[m[1]+" "+m[2]] = true
	}
	for _, rt := range publicRoutes(c, HandlerConfig{}) {
		if !listed[rt.method+" "+rt.path] {
			t.Errorf("route %s %s is missing from busprobe-server's endpoint list", rt.method, rt.path)
		}
	}
}

// commandFlags maps each busprobe-<name> command to the flag names its
// source defines: the first string argument of a flag definition on the
// flag package or a FlagSet, and a "-name" literal an argument is
// compared with (busprobe-vet parses its few arguments by hand, in its
// driver package).
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	root := filepath.Join("..", "..")
	cmds, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	definers := map[string]bool{}
	for _, kind := range []string{"Bool", "Duration", "Float64", "Func", "Int", "Int64", "String", "TextVar", "Uint", "Uint64"} {
		definers[kind], definers[kind+"Var"] = true, true
	}
	handParsed := regexp.MustCompile(`^"--?([A-Za-z][\w-]*)`)
	out := make(map[string]map[string]bool)
	for _, cmd := range cmds {
		name, ok := strings.CutPrefix(cmd.Name(), "busprobe-")
		if !ok {
			continue
		}
		dirs := []string{filepath.Join(root, "cmd", cmd.Name())}
		if name == "vet" {
			dirs = append(dirs, filepath.Join(root, "internal", "lint", "driver"))
		}
		set := map[string]bool{}
		for _, dir := range dirs {
			pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				flagSets := map[string]bool{"flag": true}
				ast.Inspect(pkg, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						if call, ok := n.Rhs[0].(*ast.CallExpr); ok && len(n.Lhs) == 1 {
							if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewFlagSet" {
								if id, ok := n.Lhs[0].(*ast.Ident); ok {
									flagSets[id.Name] = true
								}
							}
						}
					case *ast.CallExpr:
						sel, ok := n.Fun.(*ast.SelectorExpr)
						if !ok || !definers[sel.Sel.Name] {
							return true
						}
						if x, ok := sel.X.(*ast.Ident); !ok || !flagSets[x.Name] {
							return true
						}
						for _, arg := range n.Args {
							if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
								if v, err := strconv.Unquote(lit.Value); err == nil {
									set[v] = true
								}
								break
							}
						}
					case *ast.BinaryExpr:
						if lit, ok := n.Y.(*ast.BasicLit); ok && n.Op == token.EQL && lit.Kind == token.STRING {
							if m := handParsed.FindStringSubmatch(lit.Value); m != nil {
								set[m[1]] = true
							}
						}
					}
					return true
				})
			}
		}
		out[name] = set
	}
	if len(out["server"]) == 0 || len(out["lab"]) == 0 || !out["vet"]["json"] {
		t.Fatalf("flag extraction found too little: %v", out)
	}
	return out
}

// apiMethodRE matches an "N-method" claim and `API` within one sentence
// of 40 characters or less on either side.
var apiMethodRE = regexp.MustCompile("`API`[^.\n]{0,40}?\\b(\\d+)-method|\\b(\\d+)-method[^.\n]{0,40}?`API`")

// apiMethodClaims returns the N of every "N-method" claim the markdown
// text makes about `API`, in order.
func apiMethodClaims(text string) []int {
	var out []int
	for _, m := range apiMethodRE.FindAllStringSubmatch(text, -1) {
		n, err := strconv.Atoi(m[1] + m[2])
		if err == nil {
			out = append(out, n)
		}
	}
	return out
}

// staleDocFlags lists every -flag the markdown text passes to a
// busprobe command that the command does not define. A fenced shell
// line (backslash continuations joined) splits into commands at |, ||,
// &&, ; and &, and a # starts a comment; a prose line's code spans are
// its pieces. A piece starting with a flag continues the previous
// piece's command, as a table cell or prose naming a flag does;
// otherwise the piece's first busprobe-<cmd> word names its command, so
// a flag before it (go build -o) or a binary passed as a value
// (-server-bin /tmp/busprobe-server) is not the command's.
func staleDocFlags(text string, flags map[string]map[string]bool) []string {
	cmdRE := regexp.MustCompile(`(?:^|/)busprobe-([a-z]+)$`)
	flagRE := regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)
	spanRE := regexp.MustCompile("`([^`]*)`")
	var stale []string
	check := func(line string, pieces [][]string) {
		cmd := ""
		for _, toks := range pieces {
			for i, tok := range toks {
				tok = strings.Trim(tok, "`\"'(),;:")
				if m := flagRE.FindStringSubmatch(tok); m != nil {
					if cmd != "" && !flags[cmd][m[1]] {
						stale = append(stale, fmt.Sprintf("busprobe-%s has no flag -%s: %s", cmd, m[1], strings.TrimSpace(line)))
					}
					continue
				}
				if i == 0 {
					cmd = ""
				}
				if m := cmdRE.FindStringSubmatch(tok); m != nil && cmd == "" && flags[m[1]] != nil {
					cmd = m[1]
				}
			}
		}
	}
	fenced, logical := false, ""
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced, logical = !fenced, ""
			continue
		}
		if !fenced {
			var pieces [][]string
			for _, m := range spanRE.FindAllStringSubmatch(line, -1) {
				pieces = append(pieces, strings.Fields(m[1]))
			}
			check(line, pieces)
			continue
		}
		logical += line
		if strings.HasSuffix(logical, "\\") {
			logical = strings.TrimSuffix(logical, "\\") + " "
			continue
		}
		var pieces [][]string
		var cur []string
		for _, tok := range strings.Fields(logical) {
			if strings.HasPrefix(tok, "#") {
				break
			}
			switch tok {
			case "|", "||", "&&", ";", "&":
				pieces, cur = append(pieces, cur), nil
			default:
				cur = append(cur, tok)
			}
		}
		check(logical, append(pieces, cur))
		logical = ""
	}
	return stale
}
