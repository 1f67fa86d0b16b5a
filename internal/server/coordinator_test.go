package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/traffic"
	"busprobe/internal/faults"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/sim"
	"busprobe/internal/transit"
)

// twinWorld builds the two-island city whose routes partition into two
// route-closed groups, plus its surveyed fingerprint DB — the reference
// fixture for multi-shard tests.
func twinWorld(t *testing.T) (*sim.World, *fingerprint.DB) {
	t.Helper()
	w, err := sim.TwinCityWorld(5)
	if err != nil {
		t.Fatal(err)
	}
	fpdb, err := BuildFingerprintDB(w.Cells, w.Transit, 4, testWorldSeed)
	if err != nil {
		t.Fatal(err)
	}
	return w, fpdb
}

// twinCorpus records a twin-city campaign's upload stream, optionally
// fault-injected. Both islands must contribute trips, or a multi-shard
// test would silently degenerate to one shard.
func twinCorpus(t *testing.T, w *sim.World, fcfg faults.Config) []probe.Trip {
	t.Helper()
	cfg := sim.DefaultCampaignConfig()
	cfg.Days = 2
	cfg.Participants = 14
	cfg.Seed = 11
	cfg.Faults = fcfg
	trips, _, err := sim.RecordTrips(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trips
}

// replayInto feeds a corpus trip-by-trip, absorbing duplicate
// rejections (fault-injected corpora contain duplicates by design) and
// failing on anything else.
func replayInto(t *testing.T, sink API, trips []probe.Trip) {
	t.Helper()
	for _, trip := range trips {
		if _, err := sink.ProcessTrip(context.Background(), trip); err != nil && !errors.Is(err, ErrDuplicateTrip) {
			t.Fatal(err)
		}
	}
}

// advance drives the estimator clock of every backend api holds in
// process: a Backend's own, or each shard of an in-process Coordinator.
// A remote tier's shard processes own their clocks; advance its
// backends directly.
func advance(tb testing.TB, api API, nowS float64) {
	tb.Helper()
	switch a := api.(type) {
	case *Backend:
		a.Advance(nowS)
	case *Coordinator:
		for _, b := range a.Shards() {
			b.Advance(nowS)
		}
	default:
		tb.Fatalf("advance: %T holds no backend", api)
	}
}

// readBytes serves one GET in process and returns the status code plus
// the body, so error answers (404, 503) compare as strictly as 200s.
func readBytes(tb testing.TB, b API, path string) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	Handler(b).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return append([]byte(strconv.Itoa(rec.Code)+"\n"), rec.Body.Bytes()...)
}

// checkDerivedReads fails unless every deployment answers every read
// derived from the traffic snapshot byte-identically to the first (the
// monolith): the region index, the route digest, arrivals from stop 0
// of every route, and one segment lookup per class present in the
// monolith's current map — covered, owned but uncovered, and owned by
// no shard of part. Callers run it on the empty map and again after the
// campaign, so all three classes are exercised.
func checkDerivedReads(t *testing.T, w *sim.World, part *transit.Partition, names []string, apis []API) {
	t.Helper()
	paths := []string{"/v1/region", "/v1/routes?depart=46800"}
	for _, rt := range w.Transit.Routes() {
		paths = append(paths, "/v1/arrivals?route="+url.QueryEscape(string(rt.ID))+"&stop=0&depart=46800")
	}
	snap := apis[0].TrafficSnapshot()
	picked := make(map[string]bool)
	for i := 0; i < w.Transit.Network().NumSegments(); i++ {
		class := "unowned"
		if _, has := snap.Get(road.SegmentID(i)); has {
			class = "covered"
		} else if _, owned := part.SegmentShard(road.SegmentID(i)); owned {
			class = "uncovered"
		}
		if !picked[class] {
			picked[class] = true
			paths = append(paths, "/v1/traffic/segment?id="+strconv.Itoa(i))
		}
	}
	if !picked["unowned"] || !(picked["covered"] || picked["uncovered"]) {
		t.Fatalf("segment classes incomplete: %v", picked)
	}
	for _, path := range paths {
		want := readBytes(t, apis[0], path)
		for i, api := range apis[1:] {
			if got := readBytes(t, api, path); !bytes.Equal(got, want) {
				t.Errorf("%s %s = %s, %s answers %s", names[i+1], path, got, names[0], want)
			}
		}
	}
}

func newTwinCoordinator(t *testing.T, w *sim.World, fpdb *fingerprint.DB, shards int) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(Config{}, w.Transit, fpdb, shards)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestShardEquivalence(t *testing.T) {
	// The tentpole acceptance bar: on the same campaign, a 4-shard
	// coordinator must produce a byte-identical /v1/traffic response —
	// and byte-identical derived reads — to a 1-shard coordinator and to
	// the monolithic backend, with and without fault injection
	// (duplication, reordering, delay).
	w, fpdb := twinWorld(t)
	for _, tc := range []struct {
		name string
		fcfg faults.Config
	}{
		{"clean", faults.Config{}},
		{"faulted", faults.Config{Seed: 77, DupRate: 0.3, ReorderRate: 0.3, DelayRate: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trips := twinCorpus(t, w, tc.fcfg)

			mono, err := NewBackend(Config{}, w.Transit, fpdb)
			if err != nil {
				t.Fatal(err)
			}
			one := newTwinCoordinator(t, w, fpdb, 1)
			four := newTwinCoordinator(t, w, fpdb, 4)
			names := []string{"monolith", "1-shard coordinator", "4-shard coordinator"}
			apis := []API{mono, one, four}
			checkDerivedReads(t, w, four.part, names, apis)
			for _, api := range apis {
				replayInto(t, api, trips)
			}
			for _, api := range apis {
				advance(t, api, 3*clock.DayS)
			}

			wantTraffic := trafficBytes(t, mono)
			if len(mono.Traffic()) == 0 {
				t.Fatal("campaign produced no estimates; equivalence is vacuous")
			}
			if got := trafficBytes(t, one); !bytes.Equal(got, wantTraffic) {
				t.Errorf("1-shard coordinator /v1/traffic differs from monolith")
			}
			if got := trafficBytes(t, four); !bytes.Equal(got, wantTraffic) {
				t.Errorf("4-shard coordinator /v1/traffic differs from monolith")
			}
			checkDerivedReads(t, w, four.part, names, apis)

			// The sharding must be real: both islands' shards ingested.
			busy := 0
			for _, st := range four.ShardStatuses() {
				if st.Stats.TripsReceived > 0 {
					busy++
				}
			}
			if busy < 2 {
				t.Fatalf("only %d shards received trips; twin-city corpus should span 2", busy)
			}

			// Aggregated counters match the monolith's exactly: every
			// trip and observation is counted by exactly one shard.
			if monoStats, fourStats := mono.Stats(), four.Stats(); monoStats != fourStats {
				t.Errorf("4-shard Stats() = %+v, monolith %+v", fourStats, monoStats)
			}

			// Merged stage metrics match on every counter except the
			// estimate stage's run count and timings: the scatter runs
			// that stage once per (trip, owner shard) group instead of
			// once per trip, but items in/out — the observations folded —
			// must agree.
			monoStages, fourStages := mono.StageMetrics(), four.StageMetrics()
			if len(monoStages) != len(fourStages) {
				t.Fatalf("stage row count %d vs %d", len(fourStages), len(monoStages))
			}
			for i, m := range monoStages {
				f := fourStages[i]
				if f.Stage != m.Stage {
					t.Fatalf("stage %d name %q vs %q", i, f.Stage, m.Stage)
				}
				m.DurationNs, f.DurationNs = 0, 0
				if m.Stage == "estimate" {
					m.Runs, f.Runs = 0, 0
				}
				if f != m {
					t.Errorf("stage %q merged metrics %+v, monolith %+v", m.Stage, f, m)
				}
			}
		})
	}
}

func TestShardForRoutesByIsland(t *testing.T) {
	// Every trip must land on the shard owning the stops it matched, and
	// the twin-city corpus must exercise at least two shards.
	w, fpdb := twinWorld(t)
	four := newTwinCoordinator(t, w, fpdb, 4)
	part := four.part
	trips := twinCorpus(t, w, faults.Config{})
	seen := make(map[int]int)
	for _, trip := range trips {
		sh := four.shardFor(trip)
		seen[sh]++
		// The contract: the first sample whose best match clears γ names
		// the home shard. (Later samples can disagree — a tower in the
		// gap between islands occasionally straddles both with a lucky
		// shadow-fade draw — but the first match is what routes.)
		want := 0
		for _, s := range trip.Samples {
			m, ok := fpdb.Match(s.Fingerprint())
			if !ok {
				continue
			}
			if ws, ok := part.StopShard(m.Stop); ok {
				want = ws
			}
			break
		}
		if sh != want {
			t.Fatalf("trip %s routed to shard %d, want %d (first matching sample)", trip.ID, sh, want)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("corpus exercised shards %v, want at least 2", seen)
	}
	// Deterministic: re-routing the same trips gives the same answers.
	for _, trip := range trips {
		if four.shardFor(trip) != four.shardFor(trip) {
			t.Fatal("shardFor not deterministic")
		}
	}
}

func TestPerShardShedding(t *testing.T) {
	// Saturating one region's admission gate must shed that region's
	// trips with 429/ErrOverloaded while the other shard keeps
	// ingesting, and the aggregate counters must reflect the shed
	// without double counting.
	w, fpdb := twinWorld(t)
	cfg := Config{MaxInflightBatches: 1}
	coord, err := NewCoordinator(cfg, w.Transit, fpdb, 2)
	if err != nil {
		t.Fatal(err)
	}
	trips := twinCorpus(t, w, faults.Config{})
	byShard := make(map[int][]probe.Trip)
	for _, trip := range trips {
		sh := coord.shardFor(trip)
		byShard[sh] = append(byShard[sh], trip)
	}
	if len(byShard[0]) == 0 || len(byShard[1]) == 0 {
		t.Fatalf("corpus does not span both shards: %d/%d", len(byShard[0]), len(byShard[1]))
	}

	// Occupy shard 0's only batch slot; shard 1's gate stays open.
	release, ok := coord.Shards()[0].AdmitBatch(0)
	if !ok {
		t.Fatal("could not occupy shard 0's gate")
	}

	mixed := append(append([]probe.Trip{}, byShard[0][0]), byShard[1]...)
	res := coord.IngestBatch(context.Background(), mixed)
	if !errors.Is(res[0].Err, ErrOverloaded) {
		t.Errorf("saturated shard's trip: err = %v, want ErrOverloaded", res[0].Err)
	}
	for i := 1; i < len(res); i++ {
		if errors.Is(res[i].Err, ErrOverloaded) {
			t.Errorf("healthy shard's trip %d shed", i)
		}
	}

	// Over HTTP: a mixed batch answers 200 with per-row codes...
	h := Handler(coord)
	body, _ := json.Marshal([]probe.Trip{byShard[0][1], byShard[1][0]})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trips/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed batch status = %d, want 200", rec.Code)
	}
	var out BatchUploadResponseJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Code != "overloaded" {
		t.Errorf("row 0 code = %q, want overloaded", out.Results[0].Code)
	}
	if out.Results[1].Code == "overloaded" {
		t.Error("healthy shard's row shed over HTTP")
	}

	// ...and a batch aimed entirely at the saturated shard answers 429.
	body, _ = json.Marshal([]probe.Trip{byShard[0][2]})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trips/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated-shard batch status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	release()

	// Aggregation without double counting: coordinator totals are the
	// exact sums of the per-shard rows, and only shard 0 shed.
	statuses := coord.ShardStatuses()
	var shedBatches, shedTrips, received int
	for _, st := range statuses {
		shedBatches += st.Stats.BatchesShed
		shedTrips += st.Stats.TripsShed
		received += st.Stats.TripsReceived
	}
	agg := coord.Stats()
	if agg.BatchesShed != shedBatches || agg.TripsShed != shedTrips || agg.TripsReceived != received {
		t.Errorf("aggregate %+v does not sum per-shard rows (batches %d, trips %d, received %d)",
			agg, shedBatches, shedTrips, received)
	}
	if statuses[1].Stats.TripsShed != 0 {
		t.Errorf("healthy shard reports %d shed trips", statuses[1].Stats.TripsShed)
	}
	if agg.TripsShed == 0 || agg.BatchesShed == 0 {
		t.Errorf("nothing shed: %+v", agg)
	}

	// The merged /v1/pipeline admission row matches the aggregate too.
	rows := coord.StageMetrics()
	found := false
	for _, m := range rows {
		if m.Stage == "admission" {
			found = true
			if m.Dropped != int64(shedTrips) {
				t.Errorf("admission row dropped = %d, want %d", m.Dropped, shedTrips)
			}
		}
	}
	if !found {
		t.Error("no admission row in merged stage metrics")
	}

	// After release, the saturated shard ingests again.
	res = coord.IngestBatch(context.Background(), []probe.Trip{byShard[0][3]})
	if res[0].Err != nil {
		t.Errorf("post-release ingest failed: %v", res[0].Err)
	}
}

// TestCoordinatorReadYourWritesDuringMerge: a read that arrives while
// another merge holds the lock waits for it and then merges what it
// fetched, so it serves every acknowledged write instead of the cache
// the in-flight merge is about to replace.
func TestCoordinatorReadYourWritesDuringMerge(t *testing.T) {
	w, fpdb := twinWorld(t)
	c := newTwinCoordinator(t, w, fpdb, 2)
	if snap := c.TrafficSnapshot(); len(snap.Estimates) != 0 {
		t.Fatalf("fresh coordinator serves %d estimates", len(snap.Estimates))
	}

	c.mergeMu.Lock() // an in-flight merge
	replayInto(t, c, twinCorpus(t, w, faults.Config{}))
	advance(t, c, 12*3600)
	done := make(chan *traffic.Snapshot, 1)
	go func() { done <- c.TrafficSnapshot() }()
	// Queuing on a mutex is not observable, so give the reader time to
	// reach the lock: a reader that does not wait for the in-flight
	// merge has answered by now, with the stale cache.
	time.Sleep(100 * time.Millisecond)
	c.mergeMu.Unlock()
	got := <-done

	acked := 0
	for i, sh := range c.shards {
		part, err := sh.Traffic(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for sid := range part.Estimates {
			acked++
			if _, ok := got.Estimates[sid]; !ok {
				t.Fatalf("read served without shard %d's segment %v", i, sid)
			}
		}
	}
	if acked == 0 {
		t.Fatal("the corpus folded nothing; the test exercises no write")
	}
}
