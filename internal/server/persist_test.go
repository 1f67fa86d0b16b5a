package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/traffic"
	"busprobe/internal/faults"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/server/stage"
	"busprobe/internal/sim"
	"busprobe/internal/store"
)

// storeTestOpts sizes segments small enough that a modest corpus rolls
// through several of them.
func storeTestOpts(dir string) store.Options {
	return store.Options{
		Dir:          dir,
		SegmentBytes: 32 << 10,
		Clock:        clock.NewFake(time.Unix(1_700_000_000, 0), 0),
	}
}

// twinFixture caches the twin world per test.
type twinFixture struct {
	world *sim.World
	fpdb  *fingerprint.DB
}

func newTwinFixture(t *testing.T) *twinFixture {
	t.Helper()
	w, fpdb := twinWorld(t)
	return &twinFixture{world: w, fpdb: fpdb}
}

// recoverFresh builds a new backend over the twin world and recovers it
// from dir, returning the backend and its recovery.
func recoverFresh(t *testing.T, fx *twinFixture, dir string, legacy string) (*Backend, *StoreRecovery) {
	t.Helper()
	b, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverBackendStore(context.Background(), storeTestOpts(dir), legacy, b)
	if err != nil {
		t.Fatal(err)
	}
	return b, rec
}

// TestStoreRestartByteIdentical is the tentpole acceptance property for
// the monolith: process a corpus against a store-backed backend with a
// mid-stream checkpoint, reboot from the directory, and the served
// traffic map must be byte-identical to an uninterrupted in-memory run.
func TestStoreRestartByteIdentical(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	if len(trips) < 20 {
		t.Fatalf("corpus too small (%d trips) to cut meaningfully", len(trips))
	}
	cut := len(trips) / 2

	// Reference: uninterrupted, no persistence.
	ref, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)
	if len(ref.Traffic()) == 0 {
		t.Fatal("corpus produced no estimates; the test is vacuous")
	}

	dir := t.TempDir()
	first, rec := recoverFresh(t, fx, dir, "")
	if rec.Report.Mode != "fresh" {
		t.Fatalf("virgin dir recovered in mode %q, want fresh", rec.Report.Mode)
	}
	replayInto(t, first, trips[:cut])
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	replayInto(t, first, trips[cut:])
	if err := rec.Log().Close(); err != nil {
		t.Fatal(err)
	}

	second, rec2 := recoverFresh(t, fx, dir, "")
	if rec2.Report.Mode != "snapshot+tail" {
		t.Fatalf("recovered in mode %q, want snapshot+tail (report: %+v)", rec2.Report.Mode, rec2.Report)
	}
	if !rec2.SnapshotImported {
		t.Fatal("no snapshot state imported")
	}
	if rec2.TripsReplayed == 0 {
		t.Fatal("tail replay touched no trips; the checkpoint cut is untested")
	}
	// Restart is O(tail): recovery walks exactly the records appended
	// after the checkpoint, none the snapshot already covers.
	if got, tail := rec2.TripsReplayed+rec2.TripsSkipped, len(trips)-cut; got != tail {
		t.Fatalf("recovery walked %d trip records (%d replayed, %d skipped), want exactly the %d-trip tail",
			got, rec2.TripsReplayed, rec2.TripsSkipped, tail)
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("recovered /v1/traffic differs from the uninterrupted run")
	}
	if ws, rs := ref.Stats(), second.Stats(); ws != rs {
		t.Errorf("recovered stats %+v, want %+v", rs, ws)
	}
}

// TestStoreFullReplayWithoutSnapshot: a store that never checkpointed
// recovers by full replay and still serves the identical map.
func TestStoreFullReplayWithoutSnapshot(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})

	ref, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	dir := t.TempDir()
	first, rec := recoverFresh(t, fx, dir, "")
	replayInto(t, first, trips)
	if err := rec.Log().Close(); err != nil {
		t.Fatal(err)
	}
	second, rec2 := recoverFresh(t, fx, dir, "")
	if rec2.Report.Mode != "full-replay" {
		t.Fatalf("recovered in mode %q, want full-replay", rec2.Report.Mode)
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("full-replay /v1/traffic differs from the uninterrupted run")
	}
}

// TestStoreSnapshotSchemaFallback: a snapshot whose blob passes its
// checksum but cannot be imported — it does not decode as
// PersistentState (a schema from another build), or its estimator
// state carries a belief that is not the fold of the reports beside
// it — must drop recovery to a full replay, not fail boot and not be
// served.
func TestStoreSnapshotSchemaFallback(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})

	ref, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	for _, tc := range []struct {
		name string
		blob func(t *testing.T, b *Backend) []byte
	}{
		{"foreign schema", func(*testing.T, *Backend) []byte {
			return []byte(`{"schema":"busprobe-state/999"}`)
		}},
		{"hist disagrees with its windows", func(t *testing.T, b *Backend) []byte {
			st := b.ExportState()
			tampered := false
			for i := range st.Estimator.Segments {
				if h := &st.Estimator.Segments[i].Hist; h.Reports > 0 {
					h.SpeedKmh += 7
					tampered = true
					break
				}
			}
			if !tampered {
				t.Fatal("no folded segment to tamper with; the case is vacuous")
			}
			blob, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			first, rec := recoverFresh(t, fx, dir, "")
			replayInto(t, first, trips)
			// Seal and snapshot by hand with the unimportable blob.
			s := rec.Log().Store()
			upTo, err := s.Seal()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.WriteSnapshot(upTo, tc.blob(t, first)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			second, rec2 := recoverFresh(t, fx, dir, "")
			if rec2.Report.Mode != "full-replay" {
				t.Fatalf("recovered in mode %q, want full-replay (report: %+v)", rec2.Report.Mode, rec2.Report)
			}
			if rec2.SnapshotImported {
				t.Fatal("unimportable snapshot state reported as imported")
			}
			second.Advance(3 * clock.DayS)
			if got := trafficBytes(t, second); !bytes.Equal(got, want) {
				t.Error("fallback /v1/traffic differs from the uninterrupted run")
			}
		})
	}
}

// TestStoreScatterDurability: a cross-shard scatter group persisted in
// the receiving shard's log must survive a restart even though its
// originating trip lives elsewhere — the fold is rebuilt from the
// "scatter" record, dedup key intact.
func TestStoreScatterDurability(t *testing.T) {
	fx := newTwinFixture(t)
	dir := t.TempDir()
	first, rec := recoverFresh(t, fx, dir, "")
	group := []traffic.Observation{{
		Segments: []road.SegmentID{2}, LengthM: 500, FreeKmh: 40, BTTSeconds: 70, TimeS: 60,
	}}
	if _, err := first.FoldScatter(context.Background(), "t1#0", group); err != nil {
		t.Fatal(err)
	}
	first.Advance(3600)
	want, ok := first.TrafficSnapshot().Get(2)
	if !ok || want.Reports == 0 {
		t.Fatalf("scatter did not fold: %+v", want)
	}
	if err := rec.Log().Close(); err != nil {
		t.Fatal(err)
	}

	second, rec2 := recoverFresh(t, fx, dir, "")
	if rec2.ScatterReplayed != 1 {
		t.Fatalf("ScatterReplayed = %d, want 1 (report: %+v)", rec2.ScatterReplayed, rec2.Report)
	}
	second.Advance(3600)
	got, ok := second.TrafficSnapshot().Get(2)
	if !ok || got != want {
		t.Fatalf("recovered scatter estimate %+v, want %+v", got, want)
	}
	// The idempotency record survived too: re-delivery must not re-fold.
	out, err := second.FoldScatter(context.Background(), "t1#0", group)
	if err != nil {
		t.Fatal(err)
	}
	if out.Folded == 0 {
		t.Fatal("replayed key returned a zero outcome, want the recorded one")
	}
	second.Advance(7200)
	if again, _ := second.TrafficSnapshot().Get(2); again.Reports != got.Reports {
		t.Fatalf("re-delivered scatter double-counted: %d reports, want %d", again.Reports, got.Reports)
	}
}

// TestCoordinatorStoreRecovery: a sharded deployment checkpoints and
// reboots through per-shard store directories and serves the identical
// merged map.
func TestCoordinatorStoreRecovery(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	cut := len(trips) / 2

	ref := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	base := t.TempDir()
	first := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs, err := first.RecoverStores(context.Background(), base, storeTestOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, first, trips[:cut])
	for _, b := range first.Shards() {
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	replayInto(t, first, trips[cut:])
	for _, r := range recs {
		if r.Err != "" {
			t.Fatalf("shard %d recovery: %s", r.Shard, r.Err)
		}
		if err := r.Log().Close(); err != nil {
			t.Fatal(err)
		}
	}

	second := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs2, err := second.RecoverStores(context.Background(), base, storeTestOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	replayedShards := 0
	for _, r := range recs2 {
		if r.Err != "" {
			t.Fatalf("shard %d recovery: %s", r.Shard, r.Err)
		}
		if r.Report.Mode == "snapshot+tail" {
			replayedShards++
		}
	}
	if replayedShards == 0 {
		t.Fatal("no shard recovered from a snapshot; the checkpoint path is untested")
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("recovered 2-shard /v1/traffic differs from the uninterrupted run")
	}
}

// logDamage names the shapes a crash, a bad disk or another build can
// leave in a store segment.
type logDamage uint8

const (
	corruptMiddleLine logDamage = 1 << iota // a garbled line between intact records
	oversizedLine                           // a line longer than any record, so it can only be corruption
	duplicateID                             // an intact record written twice
	unkindedLine                            // a bare trip with no record envelope: a kind this build does not know
	tornFinalLine                           // a crash mid-append
	allLogDamage      = corruptMiddleLine | oversizedLine | duplicateID | unkindedLine | tornFinalLine
)

// writeDamagedSegment hand-writes dir's first active segment: one
// {"kind":"trip",…} record per trip, as StoreLog.Append would have.
// Damage lands after the first record, the torn line at the end. The
// unkinded line carries a trip of its own, so a replay that guessed at
// it would accept it and serve a different map.
func writeDamagedSegment(t *testing.T, dir string, trips []probe.Trip, dmg logDamage) {
	t.Helper()
	var buf bytes.Buffer
	for i := range trips {
		line, err := json.Marshal(storeRecord{Kind: recKindTrip, Trip: &trips[i]})
		if err != nil {
			t.Fatal(err)
		}
		line = append(line, '\n')
		buf.Write(line)
		if i > 0 {
			continue
		}
		if dmg&corruptMiddleLine != 0 {
			buf.WriteString("{\"kind\":\"trip\",\"trip\":{\"id\":\"garbled\",\"sam\n")
		}
		if dmg&oversizedLine != 0 {
			buf.Write(bytes.Repeat([]byte{'x'}, store.DefaultMaxRecordBytes+16))
			buf.WriteByte('\n')
		}
		if dmg&duplicateID != 0 {
			buf.Write(line)
		}
		if dmg&unkindedLine != 0 {
			bare := trips[i]
			bare.ID += "-bare"
			if err := json.NewEncoder(&buf).Encode(&bare); err != nil {
				t.Fatal(err)
			}
		}
	}
	if dmg&tornFinalLine != 0 {
		buf.WriteString(`{"kind":"trip","trip":{"id":"torn","samples":[{`)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.active"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkDamagedReplay boots a deployment whose store directories (one
// for a monolith, ShardStoreDir(base, i) per shard, each holding the
// trips routed to that shard) carry a damaged active segment: damage
// must cost exactly the damaged records, the served map must be
// identical to an uninterrupted run, and the store must checkpoint and
// restart like any other.
func checkDamagedReplay(t *testing.T, shards int, dmg logDamage) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	ref, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	router := newTwinCoordinator(t, fx.world, fx.fpdb, shards)
	byShard := make([][]probe.Trip, shards)
	for _, trip := range trips {
		sh := router.ShardFor(trip)
		byShard[sh] = append(byShard[sh], trip)
	}
	base := t.TempDir()
	for i := range byShard {
		if len(byShard[i]) == 0 {
			t.Fatalf("corpus routes nothing to shard %d", i)
		}
		writeDamagedSegment(t, ShardStoreDir(base, i), byShard[i], dmg)
	}

	boot := func() (API, []*Backend, []*StoreRecovery) {
		if shards == 1 {
			b, rec := recoverFresh(t, fx, ShardStoreDir(base, 0), "")
			return b, []*Backend{b}, []*StoreRecovery{rec}
		}
		c := newTwinCoordinator(t, fx.world, fx.fpdb, shards)
		recs, err := c.RecoverStores(context.Background(), base, storeTestOpts(""))
		if err != nil {
			t.Fatal(err)
		}
		return c, c.Shards(), recs
	}
	// The garbled line, the duplicate and the unkinded line are counted
	// by the replay, the oversized line by the store's line reader; Open
	// trims the torn tail before the plan is built.
	wantSkipped := bits.OnesCount8(uint8(dmg & (corruptMiddleLine | duplicateID | unkindedLine)))
	wantOversized := bits.OnesCount8(uint8(dmg & oversizedLine))
	api, backends, recs := boot()
	for i, rec := range recs {
		if rec.Err != "" || rec.Report.Mode != "full-replay" {
			t.Fatalf("shard %d: hand-written segment not replayed: %+v", i, rec)
		}
		if rec.TripsReplayed != len(byShard[i]) {
			t.Errorf("shard %d: replayed %d trips from the segment, want %d", i, rec.TripsReplayed, len(byShard[i]))
		}
		if rec.TripsSkipped != wantSkipped || rec.Report.RecordsSkipped != wantOversized || rec.Report.TornTail {
			t.Errorf("shard %d: skipped %d trips and %d records (torn tail %v), want %d and %d with the tail already trimmed",
				i, rec.TripsSkipped, rec.Report.RecordsSkipped, rec.Report.TornTail, wantSkipped, wantOversized)
		}
	}
	api.Advance(3 * clock.DayS)
	if got := trafficBytes(t, api); !bytes.Equal(got, want) {
		t.Error("replayed /v1/traffic differs from the uninterrupted run")
	}

	for i, b := range backends {
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := recs[i].Log().Close(); err != nil {
			t.Fatal(err)
		}
	}
	api, _, recs = boot()
	for i, rec := range recs {
		if rec.Report.Mode != "snapshot+tail" || rec.TripsReplayed != 0 {
			t.Fatalf("shard %d: post-checkpoint recovery %+v, want snapshot+tail replaying nothing", i, rec)
		}
	}
	api.Advance(3 * clock.DayS)
	if got := trafficBytes(t, api); !bytes.Equal(got, want) {
		t.Error("checkpointed recovery of the damaged store differs")
	}
}

// TestStoreReplayDamagedSegment: see checkDamagedReplay. A segment with
// every kind of damage at once costs exactly the damaged records in
// both the monolith and the 2-shard layout, and a bare (unkinded) trip
// line is skipped and counted, never guessed at.
func TestStoreReplayDamagedSegment(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		dmg    logDamage
	}{
		{"monolith", 1, 0},
		{"monolith-unkinded", 1, unkindedLine},
		{"monolith-damaged", 1, allLogDamage},
		{"two-shard-damaged", 2, allLogDamage},
	} {
		t.Run(tc.name, func(t *testing.T) { checkDamagedReplay(t, tc.shards, tc.dmg) })
	}
}

// The replay-tolerance tests, one damage kind each.

// TestReplaySkipsCorruptMiddleLine: a corrupt line in the MIDDLE of the
// file (a partial write that later appends happened to follow, or disk
// damage) costs only that record; everything after it still replays.
func TestReplaySkipsCorruptMiddleLine(t *testing.T) {
	checkDamagedReplay(t, 1, corruptMiddleLine)
}

// TestReplaySkipsOversizedLine: a line longer than any record the store
// accepts costs only itself, not the rest of the replay.
func TestReplaySkipsOversizedLine(t *testing.T) {
	checkDamagedReplay(t, 1, oversizedLine)
}

// TestReplaySkipsDuplicatesAndGarbage: a record written twice replays
// once, and a torn final line is dropped.
func TestReplaySkipsDuplicatesAndGarbage(t *testing.T) {
	checkDamagedReplay(t, 1, duplicateID|tornFinalLine)
}

// TestCoordinatorJournalReplay: per-shard logs rebuild the merged
// traffic map through the coordinator's recovery, surviving a corrupt
// line mid-file.
func TestCoordinatorJournalReplay(t *testing.T) {
	checkDamagedReplay(t, 2, corruptMiddleLine)
}

// TestRecoverBackendStoreRefusesLegacyJournal: the argument that named
// a single-file journal to migrate survives only for the benchmark's
// sake; a caller that still passes one is told, not half-honoured.
func TestRecoverBackendStoreRefusesLegacyJournal(t *testing.T) {
	fx := newTwinFixture(t)
	b, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := RecoverBackendStore(context.Background(), storeTestOpts(dir), filepath.Join(dir, "journal.jsonl"), b); err == nil {
		t.Fatal("a non-empty legacy journal argument was accepted")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("refused recovery touched the store directory: %v (err %v)", ents, err)
	}
}

// TestAttachedJournalCapturesUploads: the attached trip log (the name
// predates the store) holds each accepted upload exactly once —
// duplicates are rejected before the append.
func TestAttachedJournalCapturesUploads(t *testing.T) {
	fx := newTwinFixture(t)
	trip := twinCorpus(t, fx.world, faults.Config{})[0]
	dir := t.TempDir()
	b, rec := recoverFresh(t, fx, dir, "")
	if _, err := b.ProcessTrip(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProcessTrip(context.Background(), trip); !errors.Is(err, ErrDuplicateTrip) {
		t.Fatalf("duplicate accepted: %v", err)
	}
	if err := rec.Log().Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2 := recoverFresh(t, fx, dir, "")
	if rec2.TripsReplayed != 1 || rec2.TripsSkipped != 0 {
		t.Errorf("replayed=%d skipped=%d, want 1/0 (the duplicate reached the log)", rec2.TripsReplayed, rec2.TripsSkipped)
	}
}

// TestRecoverStoresContinuesPastFailedShard: one shard whose store
// cannot be brought up (here its store directory is a regular file)
// lands its failure on its own report and boots fresh with no log; the
// other shards still recover.
func TestRecoverStoresContinuesPastFailedShard(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	c := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	var shard0 []probe.Trip
	for _, trip := range trips {
		if c.ShardFor(trip) == 0 {
			shard0 = append(shard0, trip)
		}
	}
	base := t.TempDir()
	writeDamagedSegment(t, ShardStoreDir(base, 0), shard0, 0)
	if err := os.WriteFile(ShardStoreDir(base, 1), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := c.RecoverStores(context.Background(), base, storeTestOpts(""))
	if err != nil {
		t.Fatalf("one failed shard aborted the recovery: %v", err)
	}
	if recs[0].Err != "" || recs[0].TripsReplayed != len(shard0) || recs[0].Log() == nil {
		t.Errorf("shard 0: %+v, want %d trips replayed and a log attached", recs[0], len(shard0))
	}
	if recs[1].Err == "" || recs[1].Log() != nil {
		t.Errorf("shard 1: %+v, want a recorded failure and no log", recs[1])
	}
	if err := c.Shards()[1].Checkpoint(); err == nil {
		t.Error("the failed shard has a store attached")
	}
}

// TestCheckpointRequiresStore: a backend without an attached store
// cannot checkpoint.
func TestCheckpointRequiresStore(t *testing.T) {
	fx := newTwinFixture(t)
	b, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err == nil {
		t.Fatal("checkpoint without a store succeeded")
	}
}

// TestCheckpointUnderConcurrentIngest: checkpoints racing a concurrent
// upload stream must neither deadlock nor tear a trip across the cut —
// recovery still reproduces the uninterrupted map.
func TestCheckpointUnderConcurrentIngest(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})

	ref, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	dir := t.TempDir()
	first, rec := recoverFresh(t, fx, dir, "")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := first.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Serial ingestion (order determinism is the reference's property,
	// not under test here — the race with Checkpoint is).
	for _, trip := range trips {
		if _, err := first.ProcessTrip(context.Background(), trip); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := rec.Log().Close(); err != nil {
		t.Fatal(err)
	}

	second, _ := recoverFresh(t, fx, dir, "")
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("recovery after racing checkpoints differs from the uninterrupted run")
	}
}

// TestConcurrentCheckpointsLeaveValidSnapshot: the periodic
// snapshotter and the drain's final checkpoint can call Checkpoint at
// once with no record in between. Both would write the same
// snap-<upTo>.snap.tmp; serialized, every call succeeds and the newest
// snapshot passes its checksum and imports.
func TestConcurrentCheckpointsLeaveValidSnapshot(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	dir := t.TempDir()
	first, rec := recoverFresh(t, fx, dir, "")
	replayInto(t, first, trips)
	first.Advance(3 * clock.DayS)
	want := trafficBytes(t, first)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := first.Checkpoint(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := rec.Log().Close(); err != nil {
		t.Fatal(err)
	}

	second, rec2 := recoverFresh(t, fx, dir, "")
	if !rec2.SnapshotImported || rec2.Report.SnapshotsSkipped != 0 || rec2.TripsReplayed != 0 {
		t.Fatalf("recovery after concurrent checkpoints: %+v, want the newest snapshot imported intact and nothing replayed", rec2)
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("recovery after concurrent checkpoints differs from the pre-checkpoint map")
	}
}

// TestPersistentStateExportDeterministic: two exports from the same
// quiesced backend must be byte-identical (sorted slices, no map
// ordering leaks) — the property snapshot round-trips rest on.
// TestRecoverStoresSurvivesPendingSeal: a crash between a segment's
// footer write and its rename leaves a fully-sealed file under its
// .active name. Recovery opens the store first (finishing the rename)
// and only then plans, so the plan never references the vanished
// .active path — under the old order the whole segment was skipped as
// unreadable and its acked trips silently lost.
func TestRecoverStoresSurvivesPendingSeal(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})

	ref := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	base := t.TempDir()
	first := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs, err := first.RecoverStores(context.Background(), base, storeTestOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, first, trips)
	for _, r := range recs {
		if err := r.Log().Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Crash-shape each shard directory: seal the active segment but put
	// it back under its .active name — the on-disk state after a crash
	// between footer write and rename.
	crafted := 0
	for i := range recs {
		dir := ShardStoreDir(base, i)
		sealsBefore, err := filepath.Glob(filepath.Join(dir, "*.seal"))
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(storeTestOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seals, err := filepath.Glob(filepath.Join(dir, "*.seal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(seals) == len(sealsBefore) {
			continue // this shard's active segment held no records
		}
		unrenamed := strings.TrimSuffix(seals[len(seals)-1], ".seal") + ".active"
		if err := os.Rename(seals[len(seals)-1], unrenamed); err != nil {
			t.Fatal(err)
		}
		actives, err := filepath.Glob(filepath.Join(dir, "*.active"))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range actives {
			if a != unrenamed { // the empty segment Seal rolled to
				if err := os.Remove(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		crafted++
	}
	if crafted == 0 {
		t.Fatal("no shard had a sealable active segment; the test is vacuous")
	}

	second := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs2, err := second.RecoverStores(context.Background(), base, storeTestOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, r := range recs2 {
		if r.Err != "" {
			t.Fatalf("shard %d recovery: %s", r.Shard, r.Err)
		}
		if r.Report.CorruptSegments != 0 {
			t.Fatalf("shard %d reported %d corrupt segments: %+v", r.Shard, r.Report.CorruptSegments, r.Report)
		}
		replayed += r.TripsReplayed
	}
	if replayed != len(trips) {
		t.Fatalf("replayed %d trips of %d — the pending-seal segment was skipped", replayed, len(trips))
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("recovered /v1/traffic differs from the uninterrupted run")
	}
}

// flakyTripLog fails Append on demand, standing in for a full disk.
type flakyTripLog struct{ fail bool }

func (l *flakyTripLog) Append(ctx context.Context, trip probe.Trip) error {
	if l.fail {
		return errors.New("injected append failure")
	}
	return nil
}

// TestAdmitUnmarksSeenOnJournalFailure: a trip whose journal append
// fails was never durable, so its ID must not linger in the dedup set
// — a phantom entry would reject the client's retry forever and a
// snapshot would persist the phantom, losing the trip across restarts.
func TestAdmitUnmarksSeenOnJournalFailure(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	b, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	log := &flakyTripLog{fail: true}
	b.AttachTripLog(log)
	ctx := context.Background()
	if _, err := b.ProcessTrip(ctx, trips[0]); err == nil {
		t.Fatal("journaling failure did not fail the upload")
	}
	if st := b.ExportState(); len(st.Seen) != 0 {
		t.Fatalf("phantom trip ID exported after journaling failure: %v", st.Seen)
	}
	log.fail = false
	if _, err := b.ProcessTrip(ctx, trips[0]); err != nil {
		t.Fatalf("retry after journaling failure rejected: %v", err)
	}
	if _, err := b.ProcessTrip(ctx, trips[0]); !errors.Is(err, ErrDuplicateTrip) {
		t.Fatalf("true duplicate not rejected: %v", err)
	}
}

// TestPendingScatterDurableAcrossCompaction: observation groups whose
// cross-shard delivery failed must survive checkpoints that compact
// away the trip records which produced them. The sender carries them
// as pending inside its snapshot and recovery retries them, so a
// reboot with the peer healthy converges on the unfailed map.
func TestPendingScatterDurableAcrossCompaction(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	cut := len(trips) / 2

	ref := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	replayInto(t, ref, trips)
	ref.Advance(3 * clock.DayS)
	want := trafficBytes(t, ref)

	base := t.TempDir()
	first := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs, err := first.RecoverStores(context.Background(), base, storeTestOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	// Break cross-shard delivery for the whole first run: every scatter
	// fails, so the sending shard must remember the group as pending.
	outage := true
	for _, b := range first.Shards() {
		orig := b.obsScatter
		b.obsScatter = func(ctx context.Context, owner int, key string, obs []traffic.Observation) (stage.EstimateOutput, error) {
			if outage {
				return stage.EstimateOutput{}, errors.New("injected scatter outage")
			}
			return orig(ctx, owner, key, obs)
		}
	}
	ingest := func(batch []probe.Trip) int {
		failed := 0
		for _, trip := range batch {
			if _, err := first.ProcessTrip(context.Background(), trip); err != nil {
				failed++
			}
		}
		return failed
	}
	if ingest(trips[:cut]) == 0 {
		t.Fatal("no first-half trip crossed shards; compaction coverage is vacuous")
	}
	// Two checkpoints with ingest in between: the second one's
	// compaction deletes the segments holding the first half's trip
	// records, so log replay alone can no longer reproduce the failed
	// groups.
	for _, b := range first.Shards() {
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(trips[cut:])
	for _, b := range first.Shards() {
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	pending := 0
	for _, b := range first.Shards() {
		pending += len(b.ExportState().Pending)
	}
	if pending == 0 {
		t.Fatal("scatter outage produced no pending groups")
	}
	for _, r := range recs {
		if err := r.Log().Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Reboot with scatter healthy: recovery retries the pending groups.
	second := newTwinCoordinator(t, fx.world, fx.fpdb, 2)
	recs2, err := second.RecoverStores(context.Background(), base, storeTestOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs2 {
		if r.Err != "" {
			t.Fatalf("shard %d recovery: %s", r.Shard, r.Err)
		}
	}
	for i, b := range second.Shards() {
		if n := len(b.ExportState().Pending); n != 0 {
			t.Fatalf("shard %d still holds %d pending groups after recovery retry", i, n)
		}
	}
	second.Advance(3 * clock.DayS)
	if got := trafficBytes(t, second); !bytes.Equal(got, want) {
		t.Error("recovered /v1/traffic differs from the unfailed run; pending scatters were lost")
	}
}

func TestPersistentStateExportDeterministic(t *testing.T) {
	fx := newTwinFixture(t)
	trips := twinCorpus(t, fx.world, faults.Config{})
	b, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, b, trips[:10])
	group := []traffic.Observation{{
		Segments: []road.SegmentID{2}, LengthM: 500, FreeKmh: 40, BTTSeconds: 70, TimeS: 60,
	}}
	if _, err := b.FoldScatter(context.Background(), "x#1", group); err != nil {
		t.Fatal(err)
	}
	b.notePendingScatter("z#1", 1, group)
	b.notePendingScatter("a#0", 0, group)
	a1, err := json.Marshal(b.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := json.Marshal(b.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, a2) {
		t.Fatal("two exports of the same state differ")
	}
	// Export → import → export round-trips byte-identically, pending
	// groups included.
	b2, err := NewBackend(DefaultConfig(), fx.world.Transit, fx.fpdb)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.ImportState(b.ExportState()); err != nil {
		t.Fatal(err)
	}
	a3, err := json.Marshal(b2.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, a3) {
		t.Fatal("export→import→export is not identical")
	}
}
