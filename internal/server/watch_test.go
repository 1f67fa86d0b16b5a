package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"busprobe/internal/core/traffic"
	"busprobe/internal/faults"
	"busprobe/internal/road"
)

// watchGet issues one /v1/traffic/watch request against the handler and
// decodes the response.
func watchGet(t *testing.T, h http.Handler, since uint64, waitS float64) TrafficWatchJSON {
	t.Helper()
	rec := httptest.NewRecorder()
	path := fmt.Sprintf("/v1/traffic/watch?since=%d&waitS=%g", since, waitS)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("watch status = %d: %s", rec.Code, rec.Body.String())
	}
	var out TrafficWatchJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("watch decode: %v", err)
	}
	return out
}

// renderRows renders estimate rows exactly as /v1/traffic does, so
// reconstructed maps can be compared byte-for-byte against a fresh GET.
func renderRows(t *testing.T, m map[int]SegmentEstimateJSON) []byte {
	t.Helper()
	rows := make([]SegmentEstimateJSON, 0, len(m))
	for _, row := range m {
		rows = append(rows, row)
	}
	sortRows(rows)
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, rows)
	return rec.Body.Bytes()
}

// applyWatch folds one watch delta into a client-side row map.
func applyWatch(m map[int]SegmentEstimateJSON, out TrafficWatchJSON) {
	if out.Resync {
		for sid := range m {
			delete(m, sid)
		}
	}
	for _, row := range out.Changed {
		m[row.Segment] = row
	}
	for _, sid := range out.Removed {
		delete(m, sid)
	}
}

func TestTrafficConditionalGet(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	h := Handler(b)

	trip, _ := rideTrip(t, w, 0, 1, 6, "trip-etag")
	if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	b.Advance(9 * 3600)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traffic", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/traffic status = %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	verHdr := rec.Header().Get(TrafficVersionHeader)
	if etag == "" || verHdr == "" {
		t.Fatalf("missing ETag (%q) or version header (%q)", etag, verHdr)
	}
	ver, err := strconv.ParseUint(verHdr, 10, 64)
	if err != nil || ver == 0 {
		t.Fatalf("version header %q not a positive integer", verHdr)
	}
	if want := trafficETag(ver); etag != want {
		t.Fatalf("ETag %q does not encode version %d (want %q)", etag, ver, want)
	}
	// The body is served whole, framed by its length.
	clen := strconv.Itoa(rec.Body.Len())
	if got := rec.Header().Get("Content-Length"); got != clen || rec.Body.Len() == 0 {
		t.Fatalf("Content-Length = %q over a %d-byte body", got, rec.Body.Len())
	}

	// HEAD answers what the GET did, minus the body — revalidated too.
	for _, tc := range []struct {
		inm  string
		code int
		clen string
	}{{"", http.StatusOK, clen}, {etag, http.StatusNotModified, ""}} {
		head := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodHead, "/v1/traffic", nil)
		if tc.inm != "" {
			req.Header.Set("If-None-Match", tc.inm)
		}
		h.ServeHTTP(head, req)
		if head.Code != tc.code || head.Body.Len() != 0 {
			t.Errorf("HEAD (If-None-Match %q): status %d with %d body bytes, want %d and none", tc.inm, head.Code, head.Body.Len(), tc.code)
		}
		if e, v, l := head.Header().Get("ETag"), head.Header().Get(TrafficVersionHeader), head.Header().Get("Content-Length"); e != etag || v != verHdr || l != tc.clen {
			t.Errorf("HEAD (If-None-Match %q): ETag %q, version %q, Content-Length %q; want %q, %q, %q", tc.inm, e, v, l, etag, verHdr, tc.clen)
		}
	}

	// Unchanged snapshot: the conditional GET moves no body.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/traffic", nil)
	req.Header.Set("If-None-Match", etag)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("conditional GET status = %d, want 304", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("304 carried %d body bytes", rec.Body.Len())
	}
	if got := rec.Header().Get("ETag"); got != etag {
		t.Fatalf("304 ETag = %q, want %q", got, etag)
	}

	// Wildcard, list and weak forms must match too: If-None-Match
	// compares weakly, and a compressing proxy weakens our strong tag.
	for _, hdr := range []string{"*", `"v999", ` + etag, "W/" + etag, `"v999", W/` + etag} {
		rec = httptest.NewRecorder()
		req = httptest.NewRequest(http.MethodGet, "/v1/traffic", nil)
		req.Header.Set("If-None-Match", hdr)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status = %d, want 304", hdr, rec.Code)
		}
	}

	// New fold → new version: the stale tag no longer matches.
	trip2, _ := rideTrip(t, w, 1, 0, 5, "trip-etag-2")
	if _, err := b.ProcessTrip(context.Background(), trip2); err != nil {
		t.Fatal(err)
	}
	b.Advance(10 * 3600)
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodGet, "/v1/traffic", nil)
	req.Header.Set("If-None-Match", etag)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stale conditional GET status = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get("ETag"); got == etag {
		t.Fatal("ETag did not move after a new fold")
	}
}

func TestTrafficWatchDeltaReconstruction(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	h := Handler(b)

	trip, _ := rideTrip(t, w, 0, 1, 6, "trip-watch-1")
	if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	b.Advance(9 * 3600)

	// since=0 serves the full map.
	view := map[int]SegmentEstimateJSON{}
	out := watchGet(t, h, 0, 0)
	if out.Version == 0 || out.Since != 0 || out.Resync {
		t.Fatalf("initial watch = %+v", out)
	}
	if len(out.Changed) == 0 {
		t.Fatal("initial watch carried no rows")
	}
	applyWatch(view, out)
	if got, want := renderRows(t, view), trafficBytes(t, b); !bytes.Equal(got, want) {
		t.Fatalf("full-map watch differs from GET /v1/traffic:\n%s\nvs\n%s", got, want)
	}

	// Fold more data; the delta since the last seen version must carry
	// the reconstruction to byte equality with a fresh GET.
	trip2, _ := rideTrip(t, w, 1, 0, 5, "trip-watch-2")
	if _, err := b.ProcessTrip(context.Background(), trip2); err != nil {
		t.Fatal(err)
	}
	b.Advance(10 * 3600)

	out2 := watchGet(t, h, out.Version, 0)
	if out2.Version <= out.Version {
		t.Fatalf("version did not advance: %d -> %d", out.Version, out2.Version)
	}
	if out2.Since != out.Version || out2.Resync {
		t.Fatalf("delta watch = %+v", out2)
	}
	if len(out2.Changed) == 0 {
		t.Fatal("delta watch carried no rows after new fold")
	}
	applyWatch(view, out2)
	if got, want := renderRows(t, view), trafficBytes(t, b); !bytes.Equal(got, want) {
		t.Fatalf("delta-reconstructed map differs from GET /v1/traffic:\n%s\nvs\n%s", got, want)
	}

	// Caught up: an immediate poll returns an empty delta at the same
	// version.
	out3 := watchGet(t, h, out2.Version, 0)
	if out3.Version != out2.Version || len(out3.Changed) != 0 || len(out3.Removed) != 0 {
		t.Fatalf("caught-up watch = %+v", out3)
	}
}

func TestTrafficWatchResync(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	h := Handler(b)

	trip, _ := rideTrip(t, w, 0, 1, 6, "trip-resync")
	if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	b.Advance(9 * 3600)

	// A client version from a previous server life: the watch must tell
	// the client to drop its map and serves everything from zero.
	out := watchGet(t, h, 1<<40, 0)
	if !out.Resync {
		t.Fatal("ahead-of-server since did not resync")
	}
	if out.Since != 0 {
		t.Fatalf("resync since = %d, want 0", out.Since)
	}
	view := map[int]SegmentEstimateJSON{9999: {Segment: 9999}}
	applyWatch(view, out)
	if got, want := renderRows(t, view), trafficBytes(t, b); !bytes.Equal(got, want) {
		t.Fatal("resync reconstruction differs from GET /v1/traffic")
	}
}

func TestTrafficWatchLongPollWakesOnPublish(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	h := Handler(b)

	trip, _ := rideTrip(t, w, 0, 1, 6, "trip-poll-seed")
	if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	b.Advance(9 * 3600)
	base := b.TrafficSnapshot().Version

	done := make(chan TrafficWatchJSON, 1)
	go func() {
		done <- watchGet(t, h, base, 30)
	}()
	// Give the poll time to park, then publish.
	time.Sleep(50 * time.Millisecond)
	trip2, _ := rideTrip(t, w, 1, 0, 5, "trip-poll-wake")
	if _, err := b.ProcessTrip(context.Background(), trip2); err != nil {
		t.Fatal(err)
	}
	b.Advance(10 * 3600)

	select {
	case out := <-done:
		if out.Version <= base {
			t.Fatalf("woken watch at version %d, want > %d", out.Version, base)
		}
		if len(out.Changed) == 0 {
			t.Fatal("woken watch carried no delta")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not wake on publish")
	}
}

// snapshotRows renders a snapshot's /v1/traffic body independently of
// the handler's memo, through renderRows.
func snapshotRows(t *testing.T, snap *traffic.Snapshot) []byte {
	t.Helper()
	m := make(map[int]SegmentEstimateJSON, len(snap.Estimates))
	for sid, est := range snap.Estimates {
		m[int(sid)] = estimateJSON(sid, est)
	}
	return renderRows(t, m)
}

// TestTrafficRenderedOncePerVersion pins the memo's contract on both
// serving tiers: however many readers arrive together, one version is
// rendered exactly once, every reader gets the bytes a fresh render
// would produce, and a new fold gets a new tag and new bytes.
func TestTrafficRenderedOncePerVersion(t *testing.T) {
	w, fpdb := twinWorld(t)
	trips := twinCorpus(t, w, faults.Config{})
	tiers := []struct {
		name string
		make func(cfg Config) (API, error)
	}{
		{"backend", func(cfg Config) (API, error) { return NewBackend(cfg, w.Transit, fpdb) }},
		{"coordinator", func(cfg Config) (API, error) { return NewCoordinator(cfg, w.Transit, fpdb, 2) }},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			core := fakeObsCore()
			cfg := Config{Obs: core}
			api, err := tier.make(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := NewHandler(api, HandlerConfig{Obs: core})
			renders := core.Registry.Counter("busprobe_traffic_renders_total", "")
			get := func() (string, []byte) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traffic", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("/v1/traffic status = %d", rec.Code)
				}
				return rec.Header().Get("ETag"), rec.Body.Bytes()
			}

			replayInto(t, api, trips[:len(trips)/2])
			advance(t, api, 12*3600)
			// Loading the snapshot first also settles the coordinator's
			// merge, so every reader below is handed the same version.
			snap := api.TrafficSnapshot()
			if len(snap.Estimates) == 0 {
				t.Fatal("no estimates; the check is vacuous")
			}
			want := snapshotRows(t, snap)
			if n := renders.Value(); n != 0 {
				t.Fatalf("%d renders before any read: something on the write path rendered", n)
			}

			const readers = 32
			tags, bodies := make([]string, readers), make([][]byte, readers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					tags[i], bodies[i] = get()
				}()
			}
			close(start)
			wg.Wait()
			if n := renders.Value(); n != 1 {
				t.Errorf("%d concurrent readers of one version cost %d renders, want 1", readers, n)
			}
			for i := range bodies {
				if tags[i] != trafficETag(snap.Version) || !bytes.Equal(bodies[i], want) {
					t.Fatalf("reader %d: tag %s, %d bytes; want %s and the %d bytes of a fresh render", i, tags[i], len(bodies[i]), trafficETag(snap.Version), len(want))
				}
			}

			// The memo is shared by every reader: what one of them does to
			// its copy must not reach the next.
			for i := range bodies[0] {
				bodies[0][i] = 'x'
			}
			if _, again := get(); !bytes.Equal(again, want) {
				t.Error("scribbling on a served body changed the next read")
			}

			replayInto(t, api, trips[len(trips)/2:])
			advance(t, api, 13*3600)
			next := api.TrafficSnapshot()
			if next.Version == snap.Version {
				t.Fatal("second half of the corpus folded nothing; the new-version check is vacuous")
			}
			tag, body := get()
			if tag != trafficETag(next.Version) || tag == tags[0] {
				t.Errorf("after a new fold: tag %s, want %s", tag, trafficETag(next.Version))
			}
			if bytes.Equal(body, want) || !bytes.Equal(body, snapshotRows(t, next)) {
				t.Error("after a new fold: body is not a fresh render of the new version")
			}
			if n := renders.Value(); n != 2 {
				t.Errorf("two versions read cost %d renders, want 2", n)
			}
		})
	}
}

func TestTrafficDefensiveCopies(t *testing.T) {
	w := testWorld(t)
	b := testBackend(t, w)
	trip, _ := rideTrip(t, w, 0, 1, 6, "trip-copy")
	if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	b.Advance(9 * 3600)

	want := trafficBytes(t, b)
	m := b.Traffic()
	if len(m) == 0 {
		t.Fatal("no estimates; copy check is vacuous")
	}
	for sid := range m {
		m[sid] = traffic.Estimate{SpeedKmh: -1}
	}
	m[road.SegmentID(1<<20)] = traffic.Estimate{}
	if got := trafficBytes(t, b); !bytes.Equal(got, want) {
		t.Fatal("mutating Backend.Traffic()'s return corrupted /v1/traffic")
	}

	// Same contract on the coordinator tier.
	wTwin, fpdb := twinWorld(t)
	c := newTwinCoordinator(t, wTwin, fpdb, 2)
	replayInto(t, c, twinCorpus(t, wTwin, faults.Config{}))
	advance(t, c, 12*3600)
	wantC := trafficBytes(t, c)
	mc := c.TrafficSnapshot().CloneEstimates()
	if len(mc) == 0 {
		t.Fatal("coordinator produced no estimates; copy check is vacuous")
	}
	for sid := range mc {
		mc[sid] = traffic.Estimate{SpeedKmh: -1}
	}
	if got := trafficBytes(t, c); !bytes.Equal(got, wantC) {
		t.Fatal("mutating the coordinator snapshot's CloneEstimates corrupted /v1/traffic")
	}
}

func TestCoordinatorSnapshotCacheStable(t *testing.T) {
	w, fpdb := twinWorld(t)
	c := newTwinCoordinator(t, w, fpdb, 2)
	replayInto(t, c, twinCorpus(t, w, faults.Config{}))
	advance(t, c, 12*3600)

	first := c.TrafficSnapshot()
	if first.Version == 0 || len(first.Estimates) == 0 {
		t.Fatalf("merged snapshot empty: version %d, %d estimates", first.Version, len(first.Estimates))
	}
	// No shard moved: repeated reads serve the identical merged object,
	// no re-merge, no version churn.
	for i := 0; i < 3; i++ {
		if again := c.TrafficSnapshot(); again != first {
			t.Fatalf("idle re-read rebuilt the merge (version %d -> %d)", first.Version, again.Version)
		}
	}

	// A shard folds new data: the vector moves and the merge re-runs at
	// the next version.
	advance(t, c, 13*3600+1)
	if c.TrafficSnapshot() == first {
		// Advance may not fold anything new if all windows were settled;
		// force a distinguishable state check rather than failing hard.
		t.Skip("advance folded nothing new; cache invalidation not exercised")
	}
	second := c.TrafficSnapshot()
	if second.Version < first.Version {
		t.Fatalf("merged version regressed %d -> %d", first.Version, second.Version)
	}
}

func TestReadHammerUnderIngest(t *testing.T) {
	// Satellite 3: lock-free reads stay consistent while batches fold.
	// Under -race this doubles as the torn-snapshot detector.
	w := testWorld(t)
	b := testBackend(t, w)
	h := Handler(b)

	var corpus [][2]int
	for i := 0; i < 12; i++ {
		corpus = append(corpus, [2]int{i % 2, i})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := b.TrafficSnapshot()
				if snap.Version < last {
					t.Errorf("snapshot version regressed %d -> %d", last, snap.Version)
					return
				}
				if snap.Version > 0 && len(snap.Estimates) == 0 {
					t.Error("torn snapshot: version > 0 with empty map")
					return
				}
				last = snap.Version
				b.Traffic()
				snap.Get(road.SegmentID(int(last) % 64))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			out := watchGet(t, h, last, 0.05)
			if out.Version < last && !out.Resync {
				t.Errorf("watch version regressed %d -> %d", last, out.Version)
				return
			}
			last = out.Version
		}
	}()

	// A full-map reader, checking what the benchmark's closed-loop reader
	// checks — here under -race, against the memo's first-reader build.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		crcs := make(map[uint64]uint32)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traffic", nil))
			ver, err := strconv.ParseUint(rec.Header().Get(TrafficVersionHeader), 10, 64)
			if rec.Code != http.StatusOK || err != nil {
				t.Errorf("/v1/traffic status %d, version header %q", rec.Code, rec.Header().Get(TrafficVersionHeader))
				return
			}
			if ver < last {
				t.Errorf("/v1/traffic version regressed %d -> %d", last, ver)
				return
			}
			last = ver
			crc := crc32.ChecksumIEEE(rec.Body.Bytes())
			if seen, ok := crcs[ver]; ok && seen != crc {
				t.Errorf("/v1/traffic version %d served two different bodies", ver)
				return
			}
			crcs[ver] = crc
			var rows []SegmentEstimateJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
				t.Errorf("/v1/traffic version %d body is not valid JSON: %v", ver, err)
				return
			}
			if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].Segment < rows[j].Segment }) {
				t.Errorf("/v1/traffic version %d rows are not ascending by segment", ver)
				return
			}
		}
	}()

	for i, c := range corpus {
		trip, _ := rideTrip(t, w, c[0], 0, 4+i%4, fmt.Sprintf("hammer-%d", i))
		if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
			t.Fatal(err)
		}
		b.Advance(9*3600 + float64(i)*600)
	}
	close(stop)
	wg.Wait()
	if b.TrafficSnapshot().Version == 0 {
		t.Fatal("hammer campaign published nothing; the check was vacuous")
	}
}
