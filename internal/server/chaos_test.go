package server

import (
	"busprobe/internal/clock"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"busprobe/internal/faults"
	"busprobe/internal/phone"
	"busprobe/internal/probe"
	"busprobe/internal/sim"
)

// runChaosCampaign runs the standard one-day test campaign against a
// fresh backend with the given fault-injection and retry layers, then
// settles the estimator past the campaign's end so the traffic map is
// fully folded.
func runChaosCampaign(t *testing.T, w *sim.World, fcfg faults.Config, retry phone.RetryConfig, batch int) (sim.CampaignStats, *Backend) {
	t.Helper()
	b := testBackend(t, w)
	cfg := sim.DefaultCampaignConfig()
	cfg.Days = 1
	cfg.Participants = 6
	cfg.Seed = 11
	cfg.UploadBatchSize = batch
	cfg.Faults = fcfg
	cfg.UploadRetry = retry
	camp, err := sim.NewCampaign(w, cfg, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	camp.MinuteHook = func(tS float64) { b.Advance(tS) }
	st, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b.Advance(float64(cfg.Days) * clock.DayS)
	return st, b
}

// trafficBytes renders the /v1/traffic response of any serving API.
func trafficBytes(tb testing.TB, b API) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	Handler(b).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traffic", nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("/v1/traffic status = %d", rec.Code)
	}
	return rec.Body.Bytes()
}

func TestChaosEquivalenceDupReorder(t *testing.T) {
	// The tentpole acceptance bar: a campaign whose uploads are
	// duplicated, reordered, and delayed — but never lost — must
	// produce a byte-identical /v1/traffic response to the clean run.
	// Duplicates die at the dedup gate and the estimator folds each
	// observation into the window of its own timestamp, so delivery
	// order cannot leak into the map.
	w := testWorld(t)
	cleanStats, clean := runChaosCampaign(t, w, faults.Config{}, phone.RetryConfig{}, 0)
	fcfg := faults.Config{
		Seed:        77,
		DupRate:     0.3,
		ReorderRate: 0.3,
		DelayRate:   0.1,
	}
	chaosStats, chaos := runChaosCampaign(t, w, fcfg, phone.RetryConfig{}, 0)

	if chaosStats.FaultTripsDuplicated == 0 || chaosStats.FaultTripsReordered+chaosStats.FaultTripsDelayed == 0 {
		t.Fatalf("fault campaign injected nothing: %+v", chaosStats)
	}
	// Nothing is still held after Run: every offer was delivered once,
	// plus its duplicates (the drop rate is 0).
	if held := chaosStats.FaultTripsOffered + chaosStats.FaultTripsDuplicated - chaosStats.FaultTripsDelivered; held != 0 {
		t.Errorf("%d trips still held after Run", held)
	}
	if cleanStats.ParticipantTrips != chaosStats.ParticipantTrips {
		t.Fatalf("campaigns diverged before upload: %d vs %d rides",
			cleanStats.ParticipantTrips, chaosStats.ParticipantTrips)
	}

	cleanMap, chaosMap := trafficBytes(t, clean), trafficBytes(t, chaos)
	if !bytes.Equal(cleanMap, chaosMap) {
		t.Errorf("traffic maps diverged under duplicate+reorder faults:\nclean %d bytes, chaos %d bytes",
			len(cleanMap), len(chaosMap))
	}

	// The duplicates must be visible in the backend counters even
	// though the map is unchanged.
	cb, xb := clean.Stats(), chaos.Stats()
	if xb.DuplicateTrips != chaosStats.FaultTripsDuplicated {
		t.Errorf("backend saw %d duplicates, injector made %d", xb.DuplicateTrips, chaosStats.FaultTripsDuplicated)
	}
	if got, want := xb.TripsReceived-xb.DuplicateTrips, cb.TripsReceived; got != want {
		t.Errorf("unique trips %d != clean %d", got, want)
	}
}

func TestChaosDropCampaignCounters(t *testing.T) {
	// Acceptance: a 20% drop-rate campaign completes with consistent
	// counters — every offer is accounted for as delivered or dropped,
	// and the backend received exactly what the injector delivered.
	w := testWorld(t)
	fcfg := faults.Config{Seed: 77, DropRate: 0.2}
	retry := phone.DefaultRetryConfig(99)
	st, b := runChaosCampaign(t, w, fcfg, retry, 8)

	if st.FaultTripsOffered == 0 || st.FaultTripsDropped == 0 {
		t.Fatalf("campaign too small to exercise drops: %+v", st)
	}
	// Conservation: offers either deliver or drop (dup rate is 0).
	if st.FaultTripsDelivered != st.FaultTripsOffered-st.FaultTripsDropped+st.FaultTripsDuplicated {
		t.Errorf("injector leaked trips: delivered %d, offered %d, dropped %d, duplicated %d",
			st.FaultTripsDelivered, st.FaultTripsOffered, st.FaultTripsDropped, st.FaultTripsDuplicated)
	}
	bs := b.Stats()
	if bs.TripsReceived != st.FaultTripsDelivered {
		t.Errorf("backend received %d trips, injector delivered %d", bs.TripsReceived, st.FaultTripsDelivered)
	}
	accepted := bs.TripsReceived - bs.DuplicateTrips - bs.TripsRejected
	if accepted <= 0 {
		t.Fatalf("no trips accepted: %+v", bs)
	}
	// The retry layer must have recovered part of the loss.
	if st.UploadRetries == 0 {
		t.Error("20%% drop rate produced no retries")
	}
	// Every surfaced failure is an injected drop in this scenario.
	if st.UploadFailures != st.UploadsDropped {
		t.Errorf("failures %d != dropped %d", st.UploadFailures, st.UploadsDropped)
	}
	// The map still exists: a 20% loss degrades, it must not destroy.
	if len(b.Traffic()) == 0 {
		t.Error("no traffic estimates after 20%% drop campaign")
	}
}

func TestBatchSheddingUnderLoad(t *testing.T) {
	// With the admission gate saturated, POST /v1/trips/batch answers
	// 429 + Retry-After, counts the shed trips, and surfaces them in
	// the admission pseudo-stage; releasing the slot lets the retry in.
	w := testWorld(t)
	cfg := Config{MaxInflightBatches: 1}
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, testWorldSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(cfg, w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}

	release, ok := b.AdmitBatch(0) // occupy the only slot
	if !ok {
		t.Fatal("could not acquire the admission slot")
	}
	trips := batchCorpus(t, w, 3)
	if _, err := client.UploadTrips(context.Background(), trips); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated upload error = %v, want ErrOverloaded", err)
	}
	// The phone-side classification sees the same sentinel chain.
	if !errors.Is(ErrOverloaded, probe.ErrOverloaded) {
		t.Error("server sentinel does not wrap the probe sentinel")
	}
	st := b.Stats()
	if st.BatchesShed != 1 || st.TripsShed != len(trips) {
		t.Errorf("shed counters = %+v", st)
	}
	ms := b.StageMetrics()
	adm := ms[len(ms)-1]
	if adm.Stage != "admission" || adm.Dropped != int64(len(trips)) {
		t.Errorf("admission row = %+v", adm)
	}

	release()
	out, err := client.UploadTrips(context.Background(), trips)
	if err != nil {
		t.Fatalf("post-release upload: %v", err)
	}
	if out.Accepted != len(trips) {
		t.Errorf("accepted %d of %d after release", out.Accepted, len(trips))
	}
	if st := b.Stats(); st.TripsReceived != len(trips) {
		t.Errorf("stats after recovery = %+v", st)
	}
}

func TestBatchSheddingConcurrent(t *testing.T) {
	// Race-detector coverage for the gate itself: many concurrent batch
	// posts against capacity 1 must neither panic nor lose accounting —
	// every batch either ingests fully or is shed fully.
	w := testWorld(t)
	cfg := Config{MaxInflightBatches: 1}
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, testWorldSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(cfg, w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()

	trips := batchCorpus(t, w, 8)
	const posts = 6
	codes := make(chan int, posts)
	for i := 0; i < posts; i++ {
		go func() {
			client, err := NewClient(srv.URL, srv.Client())
			if err != nil {
				codes <- 0
				return
			}
			if _, err := client.UploadTrips(context.Background(), trips); errors.Is(err, ErrOverloaded) {
				codes <- http.StatusTooManyRequests
			} else if err != nil {
				codes <- 0
			} else {
				codes <- http.StatusOK
			}
		}()
	}
	okN, shedN := 0, 0
	for i := 0; i < posts; i++ {
		switch <-codes {
		case http.StatusOK:
			okN++
		case http.StatusTooManyRequests:
			shedN++
		default:
			t.Error("batch post failed outright")
		}
	}
	if okN == 0 {
		t.Fatal("every batch was shed")
	}
	st := b.Stats()
	if st.BatchesShed != shedN || st.TripsShed != shedN*len(trips) {
		t.Errorf("shed %d batches over %d posts, stats %+v", shedN, posts, st)
	}
	// Admitted batches fully ingested: first one accepts all, later
	// ones are all duplicates.
	if got := st.TripsReceived; got != okN*len(trips) {
		t.Errorf("trips received = %d, want %d", got, okN*len(trips))
	}
}

func TestClientNilHTTPClientGetsTimeout(t *testing.T) {
	c, err := NewClient("http://127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.http == http.DefaultClient {
		t.Fatal("nil httpClient fell back to the timeout-less http.DefaultClient")
	}
	if c.http.Timeout != DefaultClientTimeout {
		t.Errorf("default client timeout = %v, want %v", c.http.Timeout, DefaultClientTimeout)
	}
}

func TestClientStalledBackendTimesOut(t *testing.T) {
	// Regression for the hang: a stalled backend must fail the request
	// once the client timeout elapses instead of blocking forever.
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer srv.Close()
	defer close(stall)

	c, err := NewClient(srv.URL, &http.Client{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var healthy bool
	var upErr error
	go func() {
		defer close(done)
		healthy = c.Healthy(context.Background())
		upErr = c.Upload(context.Background(), probe.Trip{ID: "stall", DeviceID: "d"})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("client hung on a stalled backend")
	}
	if healthy {
		t.Error("Healthy() = true for a stalled backend")
	}
	if upErr == nil {
		t.Error("Upload succeeded against a stalled backend")
	}
}

func TestRequestTimeoutHandler(t *testing.T) {
	// With RequestTimeoutS set, a handler stuck past the budget answers
	// 503 instead of pinning the connection.
	w := testWorld(t)
	var cfg Config
	cfg.StageHook = func(_ context.Context, stage string, in, out, dropped int, d time.Duration) {
		if stage == "match" {
			time.Sleep(300 * time.Millisecond)
		}
	}
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, testWorldSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(cfg, w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(b, HandlerConfig{RequestTimeoutS: 0.05}))
	defer srv.Close()

	trip, _ := rideTrip(t, w, 0, 0, 4, "slow-trip")
	body, _ := json.Marshal(&trip)
	resp, err := srv.Client().Post(srv.URL+"/v1/trips", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("slow request status = %d, want 503", resp.StatusCode)
	}
}
