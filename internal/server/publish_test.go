package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"busprobe/internal/core/traffic"
	"busprobe/internal/faults"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/server/stage"
	"busprobe/internal/sim"
)

// checkPublished fails unless b left nothing pending and an immediate
// publish would change nothing: every belief the write folded is
// already visible. It returns the version b serves.
func checkPublished(t *testing.T, write string, b *Backend) uint64 {
	t.Helper()
	if n := b.est.Counts().Pending; n != 0 {
		t.Errorf("%s returned with %d segments pending", write, n)
	}
	served := b.TrafficSnapshot()
	b.est.Publish()
	if now := b.TrafficSnapshot(); now != served {
		t.Errorf("%s returned before publishing: an immediate publish moved version %d -> %d", write, served.Version, now.Version)
	}
	return served.Version
}

// TestAckedWritesArePublished holds every write entry point to the ack
// boundary: a write returns — and so acknowledges — only after the
// beliefs it folded are published.
func TestAckedWritesArePublished(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()
	var n int
	trip := func() []probe.Trip {
		n++
		rt := w.Transit.Routes()[n%2]
		tr, _ := rideTrip(t, w, n%2, 0, rt.NumStops()-1, fmt.Sprintf("acked-%d", n))
		return []probe.Trip{tr}
	}
	moved := func(t *testing.T, write string, b *Backend, before uint64) {
		t.Helper()
		if checkPublished(t, write, b) == before {
			t.Errorf("%s published nothing; the check is vacuous", write)
		}
	}

	t.Run("ProcessTrip", func(t *testing.T) {
		b := testBackend(t, w)
		for i := 0; i < 3; i++ {
			before := b.TrafficSnapshot().Version
			if _, err := b.ProcessTrip(ctx, trip()[0]); err != nil {
				t.Fatal(err)
			}
			moved(t, "ProcessTrip", b, before)
		}
	})

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("ProcessTrips-workers-%d", workers), func(t *testing.T) {
			b := testBackend(t, w)
			batch := append(append(trip(), trip()...), trip()...)
			for i, r := range b.ProcessTrips(ctx, batch, workers) {
				if r.Err != nil {
					t.Fatalf("trip %d: %v", i, r.Err)
				}
			}
			moved(t, "ProcessTrips", b, 0)
		})
	}

	t.Run("POST /v1/trips/batch", func(t *testing.T) {
		b := testBackend(t, w)
		srv := httptest.NewServer(Handler(b))
		defer srv.Close()
		client, err := NewClient(srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		out, err := client.UploadTrips(ctx, append(trip(), trip()...))
		if err != nil {
			t.Fatal(err)
		}
		if out.Accepted != 2 {
			t.Fatalf("accepted %d of 2", out.Accepted)
		}
		moved(t, "POST /v1/trips/batch", b, 0)
	})

	t.Run("FoldScatter", func(t *testing.T) {
		b := testBackend(t, w)
		// Two reports a window apart: the second completes the first's
		// window, so the group moves a belief.
		group := []traffic.Observation{
			{Segments: []road.SegmentID{1, 2}, LengthM: 500, FreeKmh: 50, BTTSeconds: 80, TimeS: 100},
			{Segments: []road.SegmentID{2}, LengthM: 500, FreeKmh: 50, BTTSeconds: 90, TimeS: traffic.DefaultPeriodS + 100},
		}
		if _, err := b.FoldScatter(ctx, "peer-trip#0", group); err != nil {
			t.Fatal(err)
		}
		moved(t, "FoldScatter", b, 0)
	})

	t.Run("Coordinator trip that scatters", func(t *testing.T) {
		fw, fpdb := twinWorld(t)
		c := newTwinCoordinator(t, fw, fpdb, 2)
		scattered := false
		for _, b := range c.Shards() {
			deliver := b.obsScatter
			b.obsScatter = func(ctx context.Context, owner int, key string, obs []traffic.Observation) (stage.EstimateOutput, error) {
				out, err := deliver(ctx, owner, key, obs)
				// The owner has folded and returned; its map must already
				// show the group before the home shard acknowledges.
				checkPublished(t, "scatter to shard "+fmt.Sprint(owner), c.Shards()[owner])
				scattered = true
				return out, err
			}
		}
		for _, tr := range twinCorpus(t, fw, faults.Config{}) {
			if _, err := c.ProcessTrip(ctx, tr); err != nil && !errors.Is(err, ErrDuplicateTrip) {
				t.Fatal(err)
			}
			for i, b := range c.Shards() {
				checkPublished(t, fmt.Sprintf("coordinator trip %s on shard %d", tr.ID, i), b)
			}
			if scattered {
				return
			}
		}
		t.Fatal("no twin-city trip scattered; the check is vacuous")
	})

	t.Run("RecoverBackendStore", func(t *testing.T) {
		dir := t.TempDir()
		fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, testWorldSeed)
		if err != nil {
			t.Fatal(err)
		}
		boot := func() (*Backend, *StoreRecovery) {
			b, err := NewBackend(Config{}, w.Transit, fpdb)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := RecoverBackendStore(ctx, storeTestOpts(dir), "", b)
			if err != nil {
				t.Fatal(err)
			}
			return b, rec
		}
		first, rec := boot()
		for i := 0; i < 4; i++ {
			if _, err := first.ProcessTrip(ctx, trip()[0]); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				if err := first.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := first.TrafficSnapshot()
		if err := rec.Log().Close(); err != nil {
			t.Fatal(err)
		}
		second, rec2 := boot()
		if rec2.TripsReplayed == 0 {
			t.Fatalf("recovery replayed no tail (report %+v); the check is vacuous", rec2.Report)
		}
		if got := checkPublished(t, "RecoverBackendStore", second); got != want.Version {
			t.Errorf("recovered version %d, want %d", got, want.Version)
		}
		if !bytes.Equal(trafficBytes(t, second), trafficBytes(t, first)) {
			t.Error("recovered /v1/traffic differs from the pre-restart map")
		}
		if err := rec2.Log().Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatchPublishesOnce: a 64-trip batch of paper-world rides moves the
// traffic map's version by exactly one, and serves the bytes 64 serial
// ProcessTrip calls serve.
func TestBatchPublishesOnce(t *testing.T) {
	wcfg, err := sim.PresetWorldConfig("paper")
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 2, wcfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := sim.DefaultCampaignConfig()
	ccfg.Days = 1
	ccfg.Participants = 60
	ccfg.Seed = 3
	trips, _, err := sim.RecordTrips(context.Background(), w, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trips) < 64 {
		t.Fatalf("campaign recorded %d trips, want 64", len(trips))
	}
	trips = trips[:64]

	newBackend := func() *Backend {
		b, err := NewBackend(Config{}, w.Transit, fpdb)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := newBackend()
	for _, tr := range trips {
		if _, err := serial.ProcessTrip(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
	}
	batch := newBackend()
	for i, r := range batch.ProcessTrips(context.Background(), trips, 4) {
		if r.Err != nil {
			t.Fatalf("trip %d: %v", i, r.Err)
		}
	}
	if v := batch.TrafficSnapshot().Version; v != 1 {
		t.Errorf("64-trip batch moved the version 0 -> %d, want exactly 1", v)
	}
	if v := serial.TrafficSnapshot().Version; v < 2 {
		t.Errorf("64 serial trips published %d versions; the batch comparison is vacuous", v)
	}
	if got, want := trafficBytes(t, batch), trafficBytes(t, serial); !bytes.Equal(got, want) {
		t.Errorf("batch /v1/traffic differs from the serial one:\nbatch  %s\nserial %s", got, want)
	}
}
