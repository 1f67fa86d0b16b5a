package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"busprobe/internal/obs"
	"busprobe/internal/probe"
	"busprobe/internal/server/stage"
	"busprobe/internal/sim"
)

// batchCorpus fabricates n distinct trips over both test routes.
func batchCorpus(t *testing.T, w *sim.World, n int) []probe.Trip {
	t.Helper()
	trips := make([]probe.Trip, n)
	for i := range trips {
		trips[i], _ = rideTrip(t, w, i%2, 0, 4+i%3, fmt.Sprintf("batch-%d", i))
	}
	return trips
}

// TestKernelEquivalence is the acceptance bar for the one ingest
// kernel: whatever the worker count, a batch leaves exactly what a
// serial ProcessTrip loop over the same slice leaves —
// per-trip results, counters, /v1/pipeline rows (all but the measured
// durations), the rendered /v1/traffic bytes and each trip's span-name
// order.
func TestKernelEquivalence(t *testing.T) {
	w := testWorld(t)
	trips := batchCorpus(t, w, 12)
	type outcome struct {
		res      []TripResult
		stats    Stats
		pipeline []stage.Metrics
		traffic  []byte
		spans    [][]string
	}
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, testWorldSeed)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ingest func(*Backend) []TripResult) outcome {
		t.Helper()
		cfg := Config{Obs: fakeObsCore()}
		b, err := NewBackend(cfg, w.Transit, fpdb)
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{res: ingest(b), stats: b.Stats(), pipeline: b.StageMetrics(), traffic: trafficBytes(t, b)}
		for i := range o.pipeline {
			o.pipeline[i].DurationNs = 0
		}
		for _, trip := range trips {
			var names []string
			for _, sp := range cfg.Obs.Tracer.Spans(obs.TripTrace(trip.ID)) {
				names = append(names, sp.Name)
			}
			o.spans = append(o.spans, names)
		}
		return o
	}
	want := run(func(b *Backend) []TripResult {
		res := make([]TripResult, len(trips))
		for i, trip := range trips {
			res[i].Trip, res[i].Err = b.ProcessTrip(context.Background(), trip)
		}
		return res
	})
	if want.stats.Observations == 0 {
		t.Fatal("serial loop folded no observations; equivalence is vacuous")
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			got := run(func(b *Backend) []TripResult {
				return b.ProcessTrips(context.Background(), trips, workers)
			})
			for i := range want.res {
				if !reflect.DeepEqual(got.res[i], want.res[i]) {
					t.Errorf("trip %d diverged:\nserial %+v\nbatch  %+v", i, want.res[i], got.res[i])
				}
			}
			if got.stats != want.stats {
				t.Errorf("stats diverged:\nserial %+v\nbatch  %+v", want.stats, got.stats)
			}
			if !reflect.DeepEqual(got.pipeline, want.pipeline) {
				t.Errorf("/v1/pipeline rows diverged:\nserial %+v\nbatch  %+v", want.pipeline, got.pipeline)
			}
			if !bytes.Equal(got.traffic, want.traffic) {
				t.Errorf("/v1/traffic diverged:\nserial %s\nbatch  %s", want.traffic, got.traffic)
			}
			if !reflect.DeepEqual(got.spans, want.spans) {
				t.Errorf("span-name order diverged:\nserial %v\nbatch  %v", want.spans, got.spans)
			}
		})
	}
}

func TestBatchIngestRejections(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	good, _ := rideTrip(t, w, 0, 0, 4, "batch-good")
	prior, _ := rideTrip(t, w, 0, 0, 4, "batch-prior")
	if _, err := b.ProcessTrip(context.Background(), prior); err != nil {
		t.Fatal(err)
	}
	batch := []probe.Trip{
		good,
		{},    // invalid: no ID, no samples
		good,  // duplicate within the batch; first occurrence wins
		prior, // duplicate of an earlier serial ingest
	}
	res := b.ProcessTrips(context.Background(), batch, 4)
	if res[0].Err != nil {
		t.Errorf("good trip rejected: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, ErrInvalidTrip) {
		t.Errorf("invalid trip error = %v", res[1].Err)
	}
	if !errors.Is(res[2].Err, ErrDuplicateTrip) {
		t.Errorf("in-batch duplicate error = %v", res[2].Err)
	}
	if !errors.Is(res[3].Err, ErrDuplicateTrip) {
		t.Errorf("cross-ingest duplicate error = %v", res[3].Err)
	}
	st := b.Stats()
	if st.TripsRejected != 1 || st.DuplicateTrips != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUploadBatchErrorAlignment(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	good, _ := rideTrip(t, w, 0, 0, 4, "ub-good")
	errs := b.UploadBatch(context.Background(), []probe.Trip{good, {}})
	if len(errs) != 2 {
		t.Fatalf("errs = %d", len(errs))
	}
	if errs[0] != nil {
		t.Errorf("good trip: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrInvalidTrip) {
		t.Errorf("invalid trip: %v", errs[1])
	}
}

func TestHTTPUploadStatusCodes(t *testing.T) {
	// Satellite of the sentinel errors: the single-trip endpoint must
	// answer 409 for duplicates and 400 for invalid uploads.
	w := testWorld(t)
	b := testBackend(t, w)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	trip, _ := rideTrip(t, w, 0, 0, 4, "http-dup")
	if err := client.Upload(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	post := func(tr probe.Trip) int {
		t.Helper()
		body, err := json.Marshal(&tr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/v1/trips", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(trip); code != http.StatusConflict {
		t.Errorf("duplicate upload status = %d, want 409", code)
	}
	if code := post(probe.Trip{}); code != http.StatusBadRequest {
		t.Errorf("invalid upload status = %d, want 400", code)
	}
}

func TestHTTPBatchEndpoint(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	trips := batchCorpus(t, w, 5)
	trips = append(trips, probe.Trip{}) // one invalid straggler
	out, err := client.UploadTrips(context.Background(), trips)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 5 || out.Rejected != 1 {
		t.Errorf("accepted=%d rejected=%d", out.Accepted, out.Rejected)
	}
	if len(out.Results) != 6 {
		t.Fatalf("results = %d", len(out.Results))
	}
	for i := 0; i < 5; i++ {
		if !out.Results[i].Accepted || out.Results[i].TripID != trips[i].ID {
			t.Errorf("row %d = %+v", i, out.Results[i])
		}
	}
	if out.Results[5].Accepted || out.Results[5].Error == "" {
		t.Errorf("invalid row = %+v", out.Results[5])
	}
	if st := b.Stats(); st.TripsReceived != 6 {
		t.Errorf("stats = %+v", st)
	}
	// The batch uploader interface over HTTP reports per-row errors,
	// classified with the server sentinels via the row code.
	errs := client.UploadBatch(context.Background(), trips[:1])
	if !errors.Is(errs[0], ErrDuplicateTrip) {
		t.Errorf("re-upload over batch endpoint = %v, want ErrDuplicateTrip", errs[0])
	}
	// Pipeline metrics are served and ordered, with the admission gate
	// appended as a pseudo-stage.
	ms, err := getJSON[[]stage.Metrics](context.Background(), client, "/v1/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 6 || ms[0].Stage != "match" || ms[4].Stage != "estimate" || ms[5].Stage != "admission" {
		t.Fatalf("pipeline metrics = %+v", ms)
	}
	if ms[5].ItemsIn != 7 || ms[5].ItemsOut != 7 || ms[5].Dropped != 0 {
		t.Errorf("admission row = %+v", ms[5])
	}
	if ms[0].Runs == 0 {
		t.Error("match stage shows no runs after ingesting trips")
	}
}

func TestCampaignBatchedUploads(t *testing.T) {
	// End-to-end: a campaign with UploadBatchSize delivers through the
	// backend's concurrent batch path and loses nothing.
	w := testWorld(t)
	run := func(batch int) (sim.CampaignStats, Stats) {
		t.Helper()
		b := testBackend(t, w)
		cfg := sim.DefaultCampaignConfig()
		cfg.Days = 1
		cfg.Participants = 6
		cfg.Seed = 11
		cfg.UploadBatchSize = batch
		camp, err := sim.NewCampaign(w, cfg, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		camp.MinuteHook = func(tS float64) { b.Advance(tS) }
		st, err := camp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st, b.Stats()
	}
	immediate, immediateBS := run(0)
	batched, batchedBS := run(8)
	if batched.BatchFlushes == 0 {
		t.Error("batched campaign never flushed")
	}
	if batched.UploadFailures != 0 {
		t.Errorf("upload failures = %d", batched.UploadFailures)
	}
	if immediateBS.TripsReceived == 0 {
		t.Fatal("campaign produced no trips")
	}
	if batchedBS.TripsReceived != immediateBS.TripsReceived {
		t.Errorf("batched path lost trips: %d != %d",
			batchedBS.TripsReceived, immediateBS.TripsReceived)
	}
	_ = immediate
}

func TestProcessTripsEmptyAndWorkerClamp(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	if res := b.ProcessTrips(context.Background(), nil, 4); len(res) != 0 {
		t.Errorf("nil batch returned %d results", len(res))
	}
	// More workers than trips must clamp, not deadlock.
	trips := batchCorpus(t, w, 2)
	done := make(chan []TripResult, 1)
	go func() { done <- b.ProcessTrips(context.Background(), trips, 64) }()
	select {
	case res := <-done:
		for i, r := range res {
			if r.Err != nil {
				t.Errorf("trip %d: %v", i, r.Err)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("batch ingest deadlocked")
	}
}
