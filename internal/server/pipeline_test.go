package server

import (
	"busprobe/internal/clock"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"busprobe/internal/cellular"
	"busprobe/internal/core/cluster"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/tripmap"
	"busprobe/internal/geo"
	"busprobe/internal/probe"
	"busprobe/internal/server/stage"
	"busprobe/internal/transit"
)

// visitAt builds a mapped visit for white-box observation tests.
func visitAt(stop transit.StopID, arrive, depart float64) tripmap.Visit {
	return tripmap.Visit{Stop: stop, ArriveS: arrive, DepartS: depart, Confidence: 1}
}

func TestObservationsAdjacentStops(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	rt := w.Transit.Routes()[0]
	// Visits at stops 0 and 1, 70 s apart.
	visits := []tripmap.Visit{
		visitAt(rt.Stops[0], 100, 110),
		visitAt(rt.Stops[1], 180, 195),
	}
	obs, discarded := b.pipe.Extract(context.Background(), visits)
	if discarded != 0 {
		t.Errorf("discarded = %d", discarded)
	}
	if len(obs) != 1 {
		t.Fatalf("observations = %d", len(obs))
	}
	o := obs[0]
	if o.BTTSeconds != 70 {
		t.Errorf("BTT = %v, want 70 (arrive(j) - depart(i))", o.BTTSeconds)
	}
	leg := rt.Leg(w.Transit.Network(), 0)
	if math.Abs(o.LengthM-leg.LengthM) > 1e-9 {
		t.Errorf("length = %v, want %v", o.LengthM, leg.LengthM)
	}
	if len(o.Segments) != len(leg.Segments) {
		t.Errorf("segments = %d, want %d", len(o.Segments), len(leg.Segments))
	}
	if o.TimeS != 180 {
		t.Errorf("timestamp = %v, want arrival time", o.TimeS)
	}
}

func TestObservationsMergeSkippedStop(t *testing.T) {
	// §III-D: a missing intermediate stop merges the adjacent segments
	// into one observation.
	w := testWorld(t)
	b := testBackend(t, w)
	rt := w.Transit.Routes()[0]
	visits := []tripmap.Visit{
		visitAt(rt.Stops[1], 100, 110),
		visitAt(rt.Stops[3], 250, 260), // stop 2 skipped
	}
	obs, discarded := b.pipe.Extract(context.Background(), visits)
	if discarded != 0 || len(obs) != 1 {
		t.Fatalf("obs=%d discarded=%d", len(obs), discarded)
	}
	merged := rt.LegBetween(w.Transit.Network(), 1, 3)
	if math.Abs(obs[0].LengthM-merged.LengthM) > 1e-9 {
		t.Errorf("merged length = %v, want %v", obs[0].LengthM, merged.LengthM)
	}
	if len(obs[0].Segments) != len(merged.Segments) {
		t.Errorf("merged segments = %d, want %d", len(obs[0].Segments), len(merged.Segments))
	}
}

func TestObservationsDiscardImplausible(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	rt := w.Transit.Routes()[0]
	cases := []struct {
		name   string
		visits []tripmap.Visit
	}{
		{"negative btt", []tripmap.Visit{
			visitAt(rt.Stops[0], 100, 200),
			visitAt(rt.Stops[1], 150, 160), // arrives before departing prev
		}},
		{"teleport speed", []tripmap.Visit{
			visitAt(rt.Stops[0], 100, 110),
			visitAt(rt.Stops[1], 110.5, 120), // 500 m in 0.5 s
		}},
		{"stalled", []tripmap.Visit{
			visitAt(rt.Stops[0], 100, 110),
			visitAt(rt.Stops[1], 100000, 100100), // absurdly slow
		}},
		{"unordered pair", []tripmap.Visit{
			visitAt(rt.Stops[3], 100, 110),
			visitAt(rt.Stops[1], 200, 210), // backwards on the route
		}},
	}
	for _, c := range cases {
		obs, discarded := b.pipe.Extract(context.Background(), c.visits)
		if len(obs) != 0 || discarded != 1 {
			t.Errorf("%s: obs=%d discarded=%d", c.name, len(obs), discarded)
		}
	}
}

func TestObservationsRepeatedStopSkipped(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	rt := w.Transit.Routes()[0]
	visits := []tripmap.Visit{
		visitAt(rt.Stops[0], 100, 110),
		visitAt(rt.Stops[0], 130, 140), // same stop resolved twice
		visitAt(rt.Stops[1], 210, 220),
	}
	obs, discarded := b.pipe.Extract(context.Background(), visits)
	if discarded != 0 {
		t.Errorf("discarded = %d", discarded)
	}
	if len(obs) != 1 {
		t.Fatalf("observations = %d, want 1 (repeat pair contributes none)", len(obs))
	}
}

func TestObservationsEmptyAndSingle(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	rt := w.Transit.Routes()[0]
	if obs, discarded := b.pipe.Extract(context.Background(), nil); obs != nil || discarded != 0 {
		t.Error("nil visits should be empty")
	}
	single := []tripmap.Visit{visitAt(rt.Stops[0], 1, 2)}
	if obs, discarded := b.pipe.Extract(context.Background(), single); obs != nil || discarded != 0 {
		t.Error("single visit should be empty")
	}
}

func TestRankRoutesByVisitSupport(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	rt := w.Transit.Routes()[0]
	visits := []tripmap.Visit{
		visitAt(rt.Stops[0], 100, 110),
		visitAt(rt.Stops[1], 200, 210),
		visitAt(rt.Stops[2], 300, 310),
	}
	ranked := b.pipe.RankRoutesByVisitSupport(visits)
	if len(ranked) != w.Transit.NumRoutes() {
		t.Fatalf("ranked = %d routes", len(ranked))
	}
	if ranked[0].ID != rt.ID {
		t.Errorf("top route = %s, want %s", ranked[0].ID, rt.ID)
	}
}

func TestLegFreeKmhHarmonicMean(t *testing.T) {
	w := testWorld(t)
	rt := w.Transit.Routes()[0]
	net := w.Transit.Network()
	leg := rt.LegBetween(net, 0, 3)
	got := stage.LegFreeKmh(net, leg)
	var timeS float64
	for _, sid := range leg.Segments {
		timeS += net.Segment(sid).FreeTravelS()
	}
	want := leg.LengthM / timeS * 3.6
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("legFreeKmh = %v, want %v", got, want)
	}
	if got <= 0 {
		t.Error("free speed must be positive")
	}
}

func TestBackendWithEmptyFingerprintDB(t *testing.T) {
	// Failure injection: a backend whose DB was never surveyed drops
	// every sample but never crashes.
	w := testWorld(t)
	empty, err := fingerprint.NewDB(fingerprint.DefaultScoring(), fingerprint.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(DefaultConfig(), w.Transit, empty)
	if err != nil {
		t.Fatal(err)
	}
	trip, _ := rideTrip(t, w, 0, 0, 4, "empty-db-trip")
	res, err := b.ProcessTrip(context.Background(), trip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 0 || len(res.Visits) != 0 {
		t.Errorf("empty DB produced matches: %+v", res)
	}
	if len(b.Traffic()) != 0 {
		t.Error("traffic estimates from nothing")
	}
}

func TestConcurrentUploads(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trip, _ := rideTrip(t, w, i%2, 0, 5, fmt.Sprintf("conc-%d", i))
			if err := b.Upload(context.Background(), trip); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := b.Stats().TripsReceived; got != 16 {
		t.Errorf("trips received = %d", got)
	}
}

func TestUploadReportsPipelineCounts(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	trip, truth := rideTrip(t, w, 0, 0, 5, "counted")
	res, err := b.ProcessTrip(context.Background(), trip)
	if err != nil {
		t.Fatal(err)
	}
	if res.TripID != "counted" {
		t.Errorf("trip ID = %q", res.TripID)
	}
	if res.Clusters == 0 || res.Clusters > len(truth)+1 {
		t.Errorf("clusters = %d for %d true stops", res.Clusters, len(truth))
	}
	st := b.Stats()
	if st.VisitsMapped != len(res.Visits) {
		t.Errorf("stats visits %d != result %d", st.VisitsMapped, len(res.Visits))
	}
}

// TestTripWithForeignSamples injects samples scanned far outside the
// study region into an otherwise clean trip; the gamma filter must drop
// them without corrupting the mapped trajectory.
func TestTripWithForeignSamples(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	trip, truth := rideTrip(t, w, 0, 0, 5, "foreign")
	// Replace every third sample's readings with junk towers.
	for i := 0; i < len(trip.Samples); i += 3 {
		for j := range trip.Samples[i].Readings {
			trip.Samples[i].Readings[j].Cell += 1 << 20
		}
	}
	res, err := b.ProcessTrip(context.Background(), trip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched == 0 {
		t.Fatal("all samples dropped")
	}
	correct := 0
	for i, v := range res.Visits {
		if i < len(truth) && v.Stop == truth[i] {
			correct++
		}
	}
	if correct < len(res.Visits)*6/10 {
		t.Errorf("trajectory corrupted by junk samples: %d/%d", correct, len(res.Visits))
	}
}

func TestStatsStringableFields(t *testing.T) {
	// Guard the JSON field names the HTTP API exposes.
	var s Stats
	s.TripsReceived = 1
	out := fmt.Sprintf("%+v", s)
	for _, field := range []string{"TripsReceived", "SamplesMatched", "Observations"} {
		if !strings.Contains(out, field) {
			t.Errorf("stats missing field %s", field)
		}
	}
}

var _ = clock.DayS // virtual-time helpers now live in internal/clock

func TestOnlineDatabaseUpdate(t *testing.T) {
	// Fig. 4's online path: with OnlineUpdate enabled, confidently
	// mapped visits refresh the stop fingerprints toward the current
	// radio environment.
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.OnlineUpdate = true
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(cfg, w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}
	rt := w.Transit.Routes()[0]
	stop := rt.Stops[2]
	before, _ := fpdb.Get(stop)

	// Several clean trips through the stop; at least one should refresh
	// the entry (the medoid of fresh samples usually differs from the
	// 4-run survey pick).
	changed := false
	for k := 0; k < 6; k++ {
		trip, _ := rideTrip(t, w, 0, 0, rt.NumStops()-1, fmt.Sprintf("online-%d", k))
		if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
			t.Fatal(err)
		}
		after, _ := fpdb.Get(stop)
		if !after.Equal(before) {
			changed = true
			break
		}
	}
	if !changed {
		t.Log("fingerprint unchanged (medoid stable); verifying matching still works")
	}
	// Whatever happened, the DB must still identify the stop.
	trip, truth := rideTrip(t, w, 0, 0, rt.NumStops()-1, "online-verify")
	res, err := b.ProcessTrip(context.Background(), trip)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, v := range res.Visits {
		if i < len(truth) && v.Stop == truth[i] {
			correct++
		}
	}
	if correct < len(res.Visits)*7/10 {
		t.Errorf("accuracy degraded after online updates: %d/%d", correct, len(res.Visits))
	}
}

func TestOnlineUpdateDisabledLeavesDBUntouched(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w) // OnlineUpdate off by default
	fpdb := b.FingerprintDB()
	rt := w.Transit.Routes()[0]
	var before []cellular.Fingerprint
	for _, s := range rt.Stops {
		fp, _ := fpdb.Get(s)
		before = append(before, fp)
	}
	trip, _ := rideTrip(t, w, 0, 0, rt.NumStops()-1, "no-update")
	if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	for i, s := range rt.Stops {
		fp, _ := fpdb.Get(s)
		if !fp.Equal(before[i]) {
			t.Fatalf("stop %d fingerprint changed with updates disabled", s)
		}
	}
}

func TestReconstructTrip(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	trip, _ := ridLongTrip(t, w)
	res, err := b.ProcessTrip(context.Background(), trip)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.ReconstructTrip(res.Visits)
	if err != nil {
		t.Fatal(err)
	}
	if tr.EndS() <= tr.StartS() {
		t.Fatal("degenerate trajectory span")
	}
	// The reconstructed track should pass near the true stop platforms.
	rt := w.Transit.Routes()[0]
	pos, ok := tr.At(tr.StartS())
	if !ok {
		t.Fatal("no position at start")
	}
	start := w.Transit.Stop(rt.Stops[0]).Pos
	if d := distM(pos, start); d > 100 {
		t.Errorf("start position %v m from first stop", d)
	}
	// Too few visits is an error.
	if _, err := b.ReconstructTrip(res.Visits[:1]); err == nil {
		t.Error("want error for single visit")
	}
	if _, err := b.ReconstructTrip(nil); err == nil {
		t.Error("want error for no visits")
	}
}

// distM avoids importing geo for one call.
func distM(a, b geo.XY) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

func TestOnlineUpdateGating(t *testing.T) {
	// White-box: low-confidence visits and too-small clusters never
	// touch the database; confident, well-sampled ones do.
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.OnlineUpdate = true
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(cfg, w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}
	rt := w.Transit.Routes()[0]
	stop := rt.Stops[1]
	before, _ := fpdb.Get(stop)

	mk := func(times []float64) (probe.Trip, []cluster.Cluster, []tripmap.Visit) {
		trip := probe.Trip{ID: "gate", DeviceID: "d"}
		var elems []cluster.Element
		for _, ts := range times {
			trip.Samples = append(trip.Samples, probe.Sample{
				TimeS:    ts,
				Readings: []cellular.Reading{{Cell: 1, RSS: -60}, {Cell: 2, RSS: -70}},
			})
			elems = append(elems, cluster.Element{TimeS: ts, Stop: stop, Score: 5})
		}
		cl := []cluster.Cluster{{Elements: elems, ArriveS: times[0], DepartS: times[len(times)-1]}}
		return trip, cl, []tripmap.Visit{{Stop: stop, ArriveS: times[0], DepartS: times[len(times)-1], Confidence: 1}}
	}

	// Too few samples: gate holds.
	trip, cl, vs := mk([]float64{10, 12})
	b.onlineUpdate(trip, cl, vs)
	after, _ := fpdb.Get(stop)
	if !after.Equal(before) {
		t.Fatal("two-sample cluster updated the DB")
	}
	// Low confidence: gate holds.
	trip, cl, vs = mk([]float64{10, 12, 14, 16})
	vs[0].Confidence = 0.5
	b.onlineUpdate(trip, cl, vs)
	after, _ = fpdb.Get(stop)
	if !after.Equal(before) {
		t.Fatal("low-confidence visit updated the DB")
	}
	// Confident and well-sampled: the pool {1,2}-style samples replace
	// the entry (they are mutually identical, so the medoid is one of
	// them, differing from the surveyed fingerprint).
	trip, cl, vs = mk([]float64{10, 12, 14, 16})
	b.onlineUpdate(trip, cl, vs)
	after, _ = fpdb.Get(stop)
	if after.Equal(before) {
		t.Fatal("confident cluster did not update the DB")
	}
	if !after.Equal(cellular.Fingerprint{1, 2}) {
		t.Errorf("updated fingerprint = %v", after)
	}
}

func TestRankRoutesSkippedStopsStillSupport(t *testing.T) {
	// A visit pair that skips intermediate stops (nobody tapped there)
	// still counts as support for the serving route: StopIndex order is
	// what matters, not adjacency.
	w := testWorld(t)
	b := testBackend(t, w)
	rt := w.Transit.Routes()[0]
	visits := []tripmap.Visit{
		visitAt(rt.Stops[0], 100, 110),
		visitAt(rt.Stops[3], 400, 410), // skips stops 1 and 2
	}
	ranked := b.pipe.RankRoutesByVisitSupport(visits)
	if ranked[0].ID != rt.ID {
		t.Errorf("top route = %s, want %s (skipped-stop pair must count)", ranked[0].ID, rt.ID)
	}
}

func TestRankRoutesTieBreakDeterminism(t *testing.T) {
	// With no visits every route ties at zero support; the ranking must
	// be stable (registration order) and identical across calls.
	w := testWorld(t)
	b := testBackend(t, w)
	base := w.Transit.Routes()
	for trial := 0; trial < 3; trial++ {
		ranked := b.pipe.RankRoutesByVisitSupport(nil)
		if len(ranked) != len(base) {
			t.Fatalf("ranked %d routes, want %d", len(ranked), len(base))
		}
		for i := range ranked {
			if ranked[i].ID != base[i].ID {
				t.Fatalf("trial %d: tied ranking reordered: pos %d = %s, want %s",
					trial, i, ranked[i].ID, base[i].ID)
			}
		}
	}
}

func TestLegBetweenMergesSkippedStops(t *testing.T) {
	// legBetween over a pair that skips intermediate stops returns the
	// concatenation of the intermediate legs (§III-D merge).
	w := testWorld(t)
	b := testBackend(t, w)
	rt := w.Transit.Routes()[0]
	net := w.Transit.Network()
	routes := b.pipe.RankRoutesByVisitSupport([]tripmap.Visit{
		visitAt(rt.Stops[0], 0, 1),
		visitAt(rt.Stops[3], 2, 3),
	})
	leg, ok := b.pipe.LegBetween(routes, rt.Stops[0], rt.Stops[3])
	if !ok {
		t.Fatal("no leg for skipped-stop pair")
	}
	want := rt.LegBetween(net, 0, 3)
	if math.Abs(leg.LengthM-want.LengthM) > 1e-9 {
		t.Errorf("merged length = %v, want %v", leg.LengthM, want.LengthM)
	}
	var sumM float64
	for i := 0; i < 3; i++ {
		sumM += rt.Leg(net, i).LengthM
	}
	if math.Abs(leg.LengthM-sumM) > 1e-9 {
		t.Errorf("merged length %v != sum of intermediate legs %v", leg.LengthM, sumM)
	}
}

func TestLegBetweenUnservedPair(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	rt := w.Transit.Routes()[0]
	routes := b.pipe.RankRoutesByVisitSupport(nil)
	// A stop no route knows: unmatchable in either position.
	ghost := transit.StopID(1 << 20)
	if _, ok := b.pipe.LegBetween(routes, ghost, rt.Stops[1]); ok {
		t.Error("leg found from unknown stop")
	}
	if _, ok := b.pipe.LegBetween(routes, rt.Stops[1], ghost); ok {
		t.Error("leg found to unknown stop")
	}
	// Same stop twice: never "in order" (ti <= fi) on any route.
	if _, ok := b.pipe.LegBetween(routes, rt.Stops[1], rt.Stops[1]); ok {
		t.Error("leg found for identical stops")
	}
	// A reversed pair is only served if some route runs them that way;
	// verify legBetween agrees with a direct scan of the route set.
	from, to := rt.Stops[3], rt.Stops[1]
	served := false
	for _, r := range routes {
		fi, ti := r.StopIndex(from), r.StopIndex(to)
		if fi >= 0 && ti > fi {
			served = true
			break
		}
	}
	if _, ok := b.pipe.LegBetween(routes, from, to); ok != served {
		t.Errorf("legBetween(reversed) = %v, route scan says %v", ok, served)
	}
}

func TestBackendAccessors(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	if b.Config().Gamma != DefaultConfig().Gamma {
		t.Error("Config accessor wrong")
	}
	if b.Transit() != w.Transit {
		t.Error("Transit accessor wrong")
	}
}
