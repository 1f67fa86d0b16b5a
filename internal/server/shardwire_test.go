package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/traffic"
	"busprobe/internal/faults"
	"busprobe/internal/obs"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/sim"
)

// shardTier is a multi-process deployment stood up on real TCP sockets:
// n shard processes (each a NewShardBackend behind NewShardHandler on
// its own listener) and a stateless remote coordinator over them.
type shardTier struct {
	coord    *Coordinator
	addrs    []string
	backends []*Backend
	srvs     []*http.Server
}

// startShardTier listens first (so every shard knows all peer
// addresses before any backend exists), then starts the shard servers
// and builds the coordinator. wrap, when non-nil, decorates shard i's
// handler (fault injection, header capture).
func startShardTier(t *testing.T, w *sim.World, fpdb *fingerprint.DB, n int, cfg Config, wrap func(i int, h http.Handler) http.Handler) *shardTier {
	t.Helper()
	tier := &shardTier{addrs: make([]string, n), backends: make([]*Backend, n), srvs: make([]*http.Server, n)}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		tier.addrs[i] = "http://" + ln.Addr().String()
	}
	for i := range lns {
		b, err := NewShardBackend(cfg, w.Transit, fpdb, i, tier.addrs)
		if err != nil {
			t.Fatal(err)
		}
		tier.backends[i] = b
		var h http.Handler = NewShardHandler(b, HandlerConfig{})
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := &http.Server{Handler: h}
		tier.srvs[i] = srv
		ln := lns[i]
		go func() { _ = srv.Serve(ln) }()
	}
	t.Cleanup(func() {
		for _, s := range tier.srvs {
			_ = s.Close()
		}
	})
	coord, err := NewRemoteCoordinator(cfg, w.Transit, fpdb, tier.addrs)
	if err != nil {
		t.Fatal(err)
	}
	tier.coord = coord
	for _, st := range coord.ShardStatuses() {
		if !st.Healthy {
			t.Fatalf("shard tier not ready: shard %d: %s", st.Shard, st.LastProbe)
		}
	}
	return tier
}

// kill hard-stops shard i's server: the coordinator's next call to it
// fails at the socket, as if the process died.
func (tier *shardTier) kill(i int) { _ = tier.srvs[i].Close() }

// advance drives every shard process's estimator clock: each process
// owns its clock, so the tier advances its backends, not the
// coordinator.
func (tier *shardTier) advance(nowS float64) {
	for _, b := range tier.backends {
		b.Advance(nowS)
	}
}

func TestShardProcsEquivalenceOverSockets(t *testing.T) {
	// The tentpole acceptance bar, over the wire: a monolith, a 2-shard
	// in-process coordinator, and 2 shard PROCESSES behind a remote
	// coordinator — all fed the same campaign over real TCP sockets —
	// must answer byte-identical /v1/traffic and derived reads, clean and
	// under dup/reorder/delay fault injection.
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
			inproc := newTwinCoordinator(t, w, fpdb, 2)
			tier := startShardTier(t, w, fpdb, 2, Config{}, nil)

			// The coordinator tier is itself served over a real socket;
			// uploads travel client → coordinator → shard process.
			front := httptest.NewServer(NewHandler(tier.coord, HandlerConfig{}))
			defer front.Close()
			client, err := NewClient(front.URL, front.Client())
			if err != nil {
				t.Fatal(err)
			}

			names := []string{"monolith", "in-process coordinator", "shard-process coordinator"}
			apis := []API{mono, inproc, tier.coord}
			checkDerivedReads(t, w, tier.coord.Partition(), names, apis)
			replayInto(t, mono, trips)
			replayInto(t, inproc, trips)
			for _, trip := range trips {
				if err := client.Upload(context.Background(), trip); err != nil && !errors.Is(err, ErrDuplicateTrip) {
					t.Fatal(err)
				}
			}
			mono.Advance(3 * clock.DayS)
			advance(t, inproc, 3*clock.DayS)
			tier.advance(3 * clock.DayS)

			want := trafficBytes(t, mono)
			if len(mono.Traffic()) == 0 {
				t.Fatal("campaign produced no estimates; equivalence is vacuous")
			}
			if got := trafficBytes(t, inproc); !bytes.Equal(got, want) {
				t.Errorf("in-process coordinator /v1/traffic differs from monolith")
			}
			resp, err := http.Get(front.URL + "/v1/traffic")
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("shard-process coordinator /v1/traffic differs from monolith")
			}
			checkDerivedReads(t, w, tier.coord.Partition(), names, apis)

			// Both shard processes must have taken real traffic.
			busy := 0
			for _, st := range tier.coord.ShardStatuses() {
				if st.Stats.TripsReceived > 0 {
					busy++
				}
				if !st.Remote || st.Addr == LocalAddr {
					t.Errorf("shard %d reported as local: %+v", st.Shard, st)
				}
			}
			if busy < 2 {
				t.Fatalf("only %d shard processes received trips", busy)
			}

			// Counters survive the wire: the remote sum equals the
			// monolith's, trip for trip.
			if monoStats, wireStats := mono.Stats(), tier.coord.Stats(); monoStats != wireStats {
				t.Errorf("remote-tier Stats() = %+v, monolith %+v", wireStats, monoStats)
			}
		})
	}
}

func TestShardProcessReportsOwnShard(t *testing.T) {
	// A shard process's own /v1/shards row names its index and its
	// partition footprint — the row the coordinator tier reports for
	// it — not shard 0 owning the whole city.
	w, fpdb := twinWorld(t)
	tier := startShardTier(t, w, fpdb, 2, Config{}, nil)
	direct, err := NewClient(tier.addrs[1], http.DefaultClient)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := direct.Shards(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("shard process reports %d rows, want its own one", len(rows))
	}
	got, want := rows[0], tier.coord.ShardStatuses()[1]
	if want.Routes == 0 || want.Routes >= w.Transit.NumRoutes() {
		t.Fatalf("shard 1 owns %d of %d routes; the footprint check is vacuous", want.Routes, w.Transit.NumRoutes())
	}
	if got.Shard != want.Shard || got.Routes != want.Routes || got.Stops != want.Stops || got.Segments != want.Segments {
		t.Errorf("shard 1 reports itself as %+v, the coordinator tier as %+v", got, want)
	}
}

func TestScatterIdempotentAcrossRetry(t *testing.T) {
	// The mid-scatter kill: the owner folds the group but the response
	// dies on the wire. The home shard's retry must get the RECORDED
	// outcome back, not fold the group twice.
	w, fpdb := twinWorld(t)
	b, err := NewBackend(Config{}, w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewShardHandler(b, HandlerConfig{})
	var kills int32
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/internal/v1/scatter" && atomic.AddInt32(&kills, 1) == 1 {
			// Deliver the request — the fold happens — then cut the
			// connection before the response escapes.
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			conn, _, err := rw.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	rs := NewRemoteShard(srv.URL)
	rs.retrySleep = func(context.Context, int) error { return nil }

	seg := road.SegmentID(1)
	group := []traffic.Observation{{
		Segments: []road.SegmentID{seg}, LengthM: 800, FreeKmh: 50, BTTSeconds: 90, TimeS: 600,
	}}
	out, err := rs.Scatter(context.Background(), "trip-x#0", group)
	if err != nil {
		t.Fatalf("scatter with lost response: %v", err)
	}
	if out.Folded != 1 || out.Discarded != 0 {
		t.Errorf("scatter outcome = %+v, want 1 folded", out)
	}
	if got := atomic.LoadInt32(&kills); got < 2 {
		t.Fatalf("scatter endpoint hit %d times; the kill/retry never happened", got)
	}
	if runs := estimateRuns(t, b); runs != 1 {
		t.Errorf("estimate stage ran %d times, want 1 — the retried scatter double-counted", runs)
	}
	b.Advance(3600)
	est, ok := b.TrafficSnapshot().Get(seg)
	if !ok {
		t.Fatal("no estimate after scatter")
	}
	if est.Reports != 1 {
		t.Errorf("segment reports = %d, want 1", est.Reports)
	}

	// A journal-replay-style re-send of the same key is also absorbed.
	again, err := rs.Scatter(context.Background(), "trip-x#0", group)
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Errorf("replayed scatter outcome = %+v, want recorded %+v", again, out)
	}
	if runs := estimateRuns(t, b); runs != 1 {
		t.Errorf("estimate stage ran %d times after replayed key, want 1", runs)
	}
}

// estimateRuns reads the estimate stage's fold count — the ground truth
// for "this group was folded exactly once".
func estimateRuns(t *testing.T, b *Backend) int64 {
	t.Helper()
	for _, m := range b.StageMetrics() {
		if m.Stage == "estimate" {
			return m.Runs
		}
	}
	t.Fatal("no estimate stage in metrics")
	return 0
}

func TestFoldScatterKeyedOnce(t *testing.T) {
	// The in-process half of the idempotency contract.
	w, fpdb := twinWorld(t)
	b, err := NewBackend(Config{}, w.Transit, fpdb)
	if err != nil {
		t.Fatal(err)
	}
	group := []traffic.Observation{{
		Segments: []road.SegmentID{2}, LengthM: 500, FreeKmh: 40, BTTSeconds: 70, TimeS: 60,
	}}
	first, err := b.FoldScatter(context.Background(), "k1", group)
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.FoldScatter(context.Background(), "k1", group)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("second fold = %+v, want recorded %+v", second, first)
	}
	if runs := estimateRuns(t, b); runs != 1 {
		t.Errorf("estimate stage ran %d times for one key, want 1", runs)
	}
	// An empty key bypasses the record: each fold reaches the estimator.
	if _, err := b.FoldScatter(context.Background(), "", group); err != nil {
		t.Fatal(err)
	}
	if _, err := b.FoldScatter(context.Background(), "", group); err != nil {
		t.Fatal(err)
	}
	if runs := estimateRuns(t, b); runs != 3 {
		t.Errorf("estimate stage ran %d times, want 3 (unkeyed folds are not deduped)", runs)
	}
	b.Advance(3600)
	if est, ok := b.TrafficSnapshot().Get(2); !ok || est.Reports == 0 {
		t.Errorf("no estimate on the folded segment: %+v", est)
	}
}

func TestShardPublicWritesMisdirected(t *testing.T) {
	// A rider upload aimed straight at a shard process must bounce with
	// 421: it would bypass the coordinator's content-deterministic
	// routing. Reads keep working.
	w, fpdb := twinWorld(t)
	tier := startShardTier(t, w, fpdb, 2, Config{}, nil)
	for _, path := range []string{"/v1/trips", "/v1/trips/batch"} {
		resp, err := http.Post(tier.addrs[0]+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Errorf("POST %s on shard = %d, want 421", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(tier.addrs[0] + "/v1/traffic")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/traffic on shard = %d, want 200", resp.StatusCode)
	}
}

func TestRemoteShardBackpressure(t *testing.T) {
	// A saturated shard process sheds with per-row overloaded codes that
	// survive the two hops (shard → coordinator → public client) and
	// surface as the 429s the phone retry machinery feeds on.
	w, fpdb := twinWorld(t)
	cfg := Config{MaxInflightBatches: 1}
	tier := startShardTier(t, w, fpdb, 2, cfg, nil)
	trips := twinCorpus(t, w, faults.Config{})
	byShard := make(map[int][]probe.Trip)
	for _, trip := range trips {
		sh := tier.coord.ShardFor(trip)
		byShard[sh] = append(byShard[sh], trip)
	}
	if len(byShard[0]) < 3 || len(byShard[1]) == 0 {
		t.Fatalf("corpus does not span both shards: %d/%d", len(byShard[0]), len(byShard[1]))
	}

	// Occupy shard 0's only batch slot in its own process.
	release, ok := tier.backends[0].AdmitBatch(0)
	if !ok {
		t.Fatal("could not occupy shard 0's gate")
	}

	mixed := []probe.Trip{byShard[0][0], byShard[1][0]}
	res := tier.coord.IngestBatch(context.Background(), mixed)
	if !errors.Is(res[0].Err, ErrOverloaded) {
		t.Errorf("saturated shard's trip err = %v, want ErrOverloaded across the wire", res[0].Err)
	}
	if errors.Is(res[1].Err, ErrOverloaded) {
		t.Error("healthy shard's trip shed")
	}

	// Through the public coordinator endpoint: a batch aimed entirely at
	// the saturated shard answers 429 + Retry-After.
	front := httptest.NewServer(NewHandler(tier.coord, HandlerConfig{}))
	defer front.Close()
	body, _ := json.Marshal([]probe.Trip{byShard[0][1]})
	resp, err := http.Post(front.URL+"/v1/trips/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated-shard batch = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	release()

	// After release the shard ingests again.
	res = tier.coord.IngestBatch(context.Background(), []probe.Trip{byShard[0][2]})
	if res[0].Err != nil {
		t.Errorf("post-release ingest failed: %v", res[0].Err)
	}
}

func TestTracePropagatesAcrossShardHop(t *testing.T) {
	// The X-Busprobe-Trace header must ride coordinator → shard, so a
	// trip's stage spans on the shard join the upload's trace.
	w, fpdb := twinWorld(t)
	var got atomic.Value
	tier := startShardTier(t, w, fpdb, 2, Config{}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/internal/v1/") {
				if tr := r.Header.Get(obs.TraceHeader); tr != "" {
					got.Store(tr)
				}
			}
			h.ServeHTTP(rw, r)
		})
	})
	trips := twinCorpus(t, w, faults.Config{})
	ctx := obs.WithTrace(context.Background(), "trace-busride-1")
	if _, err := tier.coord.ProcessTrip(ctx, trips[0]); err != nil {
		t.Fatal(err)
	}
	if tr, _ := got.Load().(string); tr != "trace-busride-1" {
		t.Errorf("shard saw trace %q, want trace-busride-1", tr)
	}
}

func TestDegradedReadsAfterShardDeath(t *testing.T) {
	// Killing one shard process mid-run must leave the coordinator
	// serving: merged reads drop the dead shard's segments, /v1/shards
	// reports it unhealthy with the probe error, and the survivor's
	// data stays.
	w, fpdb := twinWorld(t)
	tier := startShardTier(t, w, fpdb, 2, Config{}, nil)
	trips := twinCorpus(t, w, faults.Config{})
	replayInto(t, tier.coord, trips)
	tier.advance(3 * clock.DayS)
	full := tier.coord.TrafficSnapshot().Estimates
	if len(full) == 0 {
		t.Fatal("no estimates before the kill")
	}
	aliveOnly := tier.backends[0].TrafficSnapshot().Estimates
	// One covered segment on each side of the kill: the segment read is
	// derived from the merged view, so the dead shard's must turn into
	// the same 404 the survivor itself gives, with no RPC to the owner.
	var kept, lost string
	for sid := range full {
		path := "/v1/traffic/segment?id=" + strconv.Itoa(int(sid))
		if _, alive := aliveOnly[sid]; alive {
			kept = path
		} else {
			lost = path
		}
	}
	if kept == "" || lost == "" {
		t.Fatalf("covered segments do not span both shards (kept %q, lost %q)", kept, lost)
	}
	if got := readBytes(t, tier.coord, lost); !bytes.HasPrefix(got, []byte("200\n")) {
		t.Fatalf("%s before the kill = %s", lost, got)
	}

	tier.kill(1)

	degraded := tier.coord.TrafficSnapshot().Estimates
	if len(degraded) == 0 || len(degraded) >= len(full) {
		t.Fatalf("degraded map has %d segments (full %d); want the survivor's slice only", len(degraded), len(full))
	}
	if len(degraded) != len(aliveOnly) {
		t.Errorf("degraded map %d segments, survivor holds %d", len(degraded), len(aliveOnly))
	}
	for _, path := range []string{kept, lost} {
		want := readBytes(t, tier.backends[0], path)
		if got := readBytes(t, tier.coord, path); !bytes.Equal(got, want) {
			t.Errorf("degraded %s = %s, survivor alone answers %s", path, got, want)
		}
	}
	if got := readBytes(t, tier.coord, lost); !bytes.HasPrefix(got, []byte("404\n")) {
		t.Errorf("dead shard's segment %s = %s, want 404", lost, got)
	}
	statuses := tier.coord.ShardStatuses()
	if !statuses[0].Healthy {
		t.Errorf("surviving shard reported unhealthy: %+v", statuses[0])
	}
	if statuses[1].Healthy || statuses[1].LastProbe == "ok" || statuses[1].LastProbe == "" {
		t.Errorf("dead shard status = %+v, want unhealthy with the probe error", statuses[1])
	}
	if !statuses[1].Remote || statuses[1].Addr != tier.addrs[1] {
		t.Errorf("dead shard topology row = %+v", statuses[1])
	}

	// The public surface stays alive end to end.
	front := httptest.NewServer(NewHandler(tier.coord, HandlerConfig{}))
	defer front.Close()
	client, err := NewClient(front.URL, front.Client())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := client.Traffic(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(degraded) {
		t.Errorf("/v1/traffic rows = %d, want %d", len(rows), len(degraded))
	}
	shardRows, err := client.Shards(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(shardRows) != 2 || shardRows[1].Healthy {
		t.Errorf("/v1/shards rows = %+v", shardRows)
	}
}

func TestStalledShardDoesNotQueueReads(t *testing.T) {
	// A shard that hangs instead of refusing costs each coordinator read
	// one stall, not one per reader queued ahead of it: the fan-out runs
	// outside the merge lock, so concurrent reads wait side by side.
	w, fpdb := twinWorld(t)
	const stall = 300 * time.Millisecond
	var stalling atomic.Bool
	tier := startShardTier(t, w, fpdb, 2, Config{}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if i == 1 && r.URL.Path == "/v1/traffic" && stalling.Load() {
				time.Sleep(stall)
			}
			h.ServeHTTP(rw, r)
		})
	})
	replayInto(t, tier.coord, twinCorpus(t, w, faults.Config{}))
	tier.advance(3 * clock.DayS)
	want := len(tier.coord.TrafficSnapshot().Estimates)

	stalling.Store(true)
	const readers = 6
	took := make(chan time.Duration, readers)
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			begin := clock.Wall{}.Now()
			if n := len(tier.coord.TrafficSnapshot().Estimates); n != want {
				t.Errorf("read during the stall serves %d segments, want %d", n, want)
			}
			took <- clock.Since(clock.Wall{}, begin)
		}()
	}
	wg.Wait()
	close(took)
	for d := range took {
		if d > 2*stall {
			t.Errorf("a read took %v behind a %v shard stall; reads are queueing", d, stall)
		}
	}
}

// TestMergeCacheOnlyMovesForward pins the per-shard rule a read applies
// under the merge lock: a part replaces the cached one when its fetch
// began after the cached fetch returned (even at a lower version, which
// only a restarted shard answers), and otherwise only when it is newer.
func TestMergeCacheOnlyMovesForward(t *testing.T) {
	v := func(n uint64) *traffic.Snapshot { return &traffic.Snapshot{Version: n} }
	cached := v(5)
	m := mergedTraffic{parts: []*traffic.Snapshot{cached}, done: []uint64{10}}
	for _, tc := range []struct {
		name  string
		part  *traffic.Snapshot
		start uint64
		want  bool
	}{
		{"same part", cached, 20, false},
		{"overlapping, older", v(4), 9, false},
		{"overlapping, newer", v(6), 9, true},
		{"overlapping, no answer", nil, 9, false},
		{"later, restarted shard", v(1), 10, true},
		{"later, no answer", nil, 10, true},
	} {
		if got := m.supersedes(0, tc.part, tc.start); got != tc.want {
			t.Errorf("%s: supersedes = %v, want %v", tc.name, got, tc.want)
		}
	}
	m.parts[0] = nil
	if !m.supersedes(0, v(1), 9) {
		t.Error("an overlapping answer does not replace a shard that did not answer")
	}
}

func TestRemoteShardUnavailableClassification(t *testing.T) {
	// A dead shard surfaces as ErrShardUnavailable, which the public
	// layer maps to 502 — distinguishable from a 4xx rejection so phone
	// retry policy treats it as transient.
	rs := NewRemoteShard("http://127.0.0.1:1") // nothing listens here
	rs.retrySleep = func(context.Context, int) error { return nil }
	if _, err := rs.ProcessTrip(context.Background(), probe.Trip{ID: "x", DeviceID: "d"}); !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("dead shard ProcessTrip err = %v, want ErrShardUnavailable", err)
	}
	if _, err := rs.Scatter(context.Background(), "k", nil); !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("dead shard Scatter err = %v, want ErrShardUnavailable", err)
	}
	if rej := classify(fmt.Errorf("wrap: %w", ErrShardUnavailable)); rej.status != http.StatusBadGateway || rej.code != "unavailable" {
		t.Errorf("classify(ErrShardUnavailable) = %d %q, want 502 unavailable", rej.status, rej.code)
	}
	// Every class survives both client paths: a single upload carries
	// it as the HTTP status, a batch row as the code.
	for _, rej := range rejections {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/trips" {
				writeJSON(w, rej.status, uploadRow("x", ProcessedTrip{}, rej.err))
				return
			}
			writeJSON(w, http.StatusOK, BatchUploadResponseJSON{Rejected: 1, Results: []UploadResponseJSON{uploadRow("x", ProcessedTrip{}, rej.err)}})
		}))
		client, err := NewClient(srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Upload(context.Background(), probe.Trip{ID: "x"}); !errors.Is(err, rej.err) {
			t.Errorf("Upload answered %d: err = %v, want %v", rej.status, err, rej.err)
		}
		if errs := client.UploadBatch(context.Background(), []probe.Trip{{ID: "x"}}); !errors.Is(errs[0], rej.err) {
			t.Errorf("UploadBatch row %q: err = %v, want %v", rej.code, errs[0], rej.err)
		}
		srv.Close()
	}
}
