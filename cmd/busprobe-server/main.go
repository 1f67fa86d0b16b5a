// Command busprobe-server runs the traffic-monitoring backend as a
// standalone HTTP service over a simulated city: it builds the world,
// surveys the bus-stop fingerprint database, and serves the ingestion
// and query API.
//
// Usage:
//
//	busprobe-server [-addr :8080] [-seed 1] [-world paper] [-survey-runs 4]
//	                [-fpdb FILE] [-shards N]
//	                [-max-inflight-batches N] [-request-timeout SECONDS]
//	                [-pprof] [-drain-timeout SECONDS]
//	                [-shard-id N] [-shard-addrs URL,URL,...]
//	                [-store-dir DIR] [-snapshot-every N] [-segment-bytes N]
//	                [-recovery-report FILE]
//
// Durability. -store-dir enables the log-structured store: every
// accepted trip (and received cross-shard scatter group) appends one
// self-checking line (CRC-32 prefix + JSON) to a segment under
// <dir>/shardN/ (a monolith is shard 0); a segment seals (fsync +
// close, immutable from then on) at -segment-bytes, and each boot
// starts a new one on its first append. Every -snapshot-every records a
// checkpoint captures the full pipeline state at a segment boundary
// and compacts the log behind it — so restart cost is O(tail), not
// O(history). On boot each shard recovers from its newest intact
// snapshot plus tail replay, falling back one snapshot (or to a full
// replay) on corruption; a line that fails its checksum or a torn
// final line is skipped and reported. The per-shard outcome prints
// and, with -recovery-report, lands in a JSON artifact. A store
// directory in the previous layout (seg-*.seal, seg-*.active) is
// refused by name and left untouched: a shard process exits 1, an
// in-process shard reports RECOVERY FAILED and starts fresh.
//
// Process topology. By default one process hosts everything: a
// monolith (-shards 1) or N in-process shards behind an in-process
// coordinator (-shards N). With -shard-addrs the shard boundary moves
// onto the wire:
//
//	busprobe-server -shard-id 0 -shard-addrs http://h0:9000,http://h1:9001
//	busprobe-server -shard-id 1 -shard-addrs http://h0:9000,http://h1:9001
//	busprobe-server -shard-addrs http://h0:9000,http://h1:9001
//
// The first two run shard processes (region shard N of len(addrs),
// serving the public read API — which is also what the coordinator
// tier reads — plus the three internal routed writes; public writes
// answer 421). The last runs a stateless coordinator tier that
// routes uploads to the shard processes and merges reads; any number of
// coordinators can front the same shards. Every process derives the
// same world and route partition from -seed, so no topology needs to be
// exchanged at runtime. -store-dir belongs to the processes that own
// backends: the shard processes, never the coordinator tier.
//
// Endpoints:
//
//	POST /v1/trips                 upload a rider trip (JSON)
//	POST /v1/trips/batch           upload a trip array (concurrent ingest)
//	GET  /v1/traffic               current traffic map (ETag = version)
//	GET  /v1/traffic/watch?since=V long-poll the delta since version V
//	GET  /v1/traffic/segment?id=N  one segment
//	GET  /v1/region                region index and covered zones
//	GET  /v1/routes?depart=S       per-route end-to-end digest
//	GET  /v1/arrivals?route=R&stop=I&depart=S
//	                               arrival predictions down a route
//	GET  /v1/stats                 pipeline counters
//	GET  /v1/pipeline              per-stage instrumentation
//	GET  /v1/shards                per-shard footprint and counters
//	GET  /healthz                  liveness
//	GET  /metrics                  Prometheus text exposition
//	GET  /debug/pprof/             live profiling (with -pprof)
//
// On SIGTERM or SIGINT the server stops accepting connections and
// drains in-flight requests for up to -drain-timeout seconds before
// exiting 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/obs"
	"busprobe/internal/server"
	"busprobe/internal/sim"
	"busprobe/internal/store"
)

var (
	addr           = flag.String("addr", ":8080", "listen address")
	seed           = flag.Uint64("seed", 1, "master world seed")
	worldPreset    = flag.String("world", "paper", "world preset: paper, small, or london")
	surveyRuns     = flag.Int("survey-runs", 4, "fingerprint survey passes per stop")
	fpdbPath       = flag.String("fpdb", "", "fingerprint DB file: loaded if present, written after a survey otherwise")
	shards         = flag.Int("shards", 1, "region shards behind the coordinator (1 = monolithic)")
	maxInflight    = flag.Int("max-inflight-batches", 0, "admission gate: concurrent batch ingests before shedding with 429 (0 = unbounded)")
	reqTimeoutS    = flag.Float64("request-timeout", 0, "per-request handling budget in seconds (0 = none)")
	pprofOn        = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	drainTimeoutS  = flag.Float64("drain-timeout", 10, "seconds to drain in-flight requests on SIGTERM before forcing exit")
	shardID        = flag.Int("shard-id", -1, "run as shard process N of the -shard-addrs topology (-1 = not a shard process)")
	shardAddrList  = flag.String("shard-addrs", "", "comma-separated shard process base URLs, in shard order; with -shard-id runs that shard, without it runs a stateless coordinator tier over them")
	storeDir       = flag.String("store-dir", "", "log-structured store base directory (per-shard stores under <dir>/shardN/)")
	snapshotEvery  = flag.Int("snapshot-every", 50000, "records appended between automatic checkpoints (0 = checkpoint only on shutdown)")
	segmentBytes   = flag.Int64("segment-bytes", 0, "sealed-segment size threshold in bytes (0 = 4 MiB default)")
	recoveryReport = flag.String("recovery-report", "", "write the boot recovery report as JSON to this file")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("busprobe-server: ")
	flag.Parse()
	if err := run(); err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

// validateFlags rejects contradictory flags, all at once, before
// anything is built or any file touched.
func validateFlags(nShards int, reqTimeoutS float64, dir string, id int, addrs []string) error {
	var errs []error
	if nShards < 1 {
		errs = append(errs, errors.New("-shards must be >= 1"))
	}
	if reqTimeoutS < 0 {
		errs = append(errs, errors.New("-request-timeout must be >= 0"))
	}
	switch {
	case id >= 0 && len(addrs) == 0:
		errs = append(errs, errors.New("-shard-id requires -shard-addrs"))
	case id >= len(addrs):
		errs = append(errs, fmt.Errorf("-shard-id %d outside the %d-entry -shard-addrs list", id, len(addrs)))
	case id < 0 && len(addrs) > 0 && dir != "":
		errs = append(errs, errors.New("-store-dir belongs to the shard processes, not the coordinator tier"))
	}
	return errors.Join(errs...)
}

// run is the one boot path: validate the topology, build the API and
// the backends this process owns, recover them from the store, serve.
func run() error {
	shardAddrs := strings.FieldsFunc(*shardAddrList, func(r rune) bool { return r == ',' || r == ' ' })
	if err := validateFlags(*shards, *reqTimeoutS, *storeDir, *shardID, shardAddrs); err != nil {
		return err
	}
	// Root context: canceled on SIGTERM/SIGINT so recovery replay and
	// in-flight ingestion observe shutdown, not just the listener.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	core := obs.NewCore(clock.Wall{})
	// The preset decides the city's footprint; every process in a
	// topology (shards, coordinators, harness drivers) must agree on
	// both preset and seed to derive the same world.
	worldCfg, err := sim.PresetWorldConfig(*worldPreset)
	if err != nil {
		return err
	}
	worldCfg.Seed = *seed
	world, err := sim.BuildWorld(worldCfg)
	if err != nil {
		return err
	}
	cfg := server.Config{MaxInflightBatches: *maxInflight, Obs: core}
	fpdb, err := loadOrSurvey(world, *surveyRuns, *seed, *fpdbPath)
	if err != nil {
		return err
	}
	fmt.Printf("city: %d road segments, %d stops, %d routes, %d cell towers\n",
		world.Net.NumSegments(), world.Transit.NumStops(),
		world.Transit.NumRoutes(), world.Cells.NumTowers())
	fmt.Printf("fingerprint DB: %d stops surveyed\n", fpdb.Len())

	// The API this process serves, the coordinator behind it (nil in a
	// shard process) and the backends it owns: one for a shard process,
	// none for a coordinator tier, every shard for an in-process layout.
	hc := server.HandlerConfig{RequestTimeoutS: *reqTimeoutS, Obs: core, Pprof: *pprofOn}
	var handler http.Handler
	var coord *server.Coordinator
	var local []*server.Backend
	switch {
	case *shardID >= 0:
		// One region shard of the -shard-addrs topology, serving the
		// read-only public API and the internal routed writes.
		b, err := server.NewShardBackend(cfg, world.Transit, fpdb, *shardID, shardAddrs)
		if err != nil {
			return err
		}
		fmt.Printf("shard process %d of %d (peers: %s)\n",
			*shardID, len(shardAddrs), strings.Join(shardAddrs, ", "))
		local = []*server.Backend{b}
		handler = server.NewShardHandler(b, hc)
	case len(shardAddrs) > 0:
		// Stateless coordinator tier over already-running shard
		// processes: routes uploads, merges reads, persists nothing.
		if coord, err = server.NewRemoteCoordinator(cfg, world.Transit, fpdb, shardAddrs); err != nil {
			return err
		}
	default:
		if coord, err = server.NewCoordinator(cfg, world.Transit, fpdb, *shards); err != nil {
			return err
		}
		local = coord.Shards()
	}
	if coord != nil {
		// Each row probes its shard. An unhealthy shard is not fatal: it
		// may still be starting, and reads degrade around it meanwhile.
		for _, st := range coord.ShardStatuses() {
			fmt.Printf("shard %d @ %s: healthy=%t (last probe: %s), %d routes, %d stops, %d segments\n",
				st.Shard, st.Addr, st.Healthy, st.LastProbe, st.Routes, st.Stops, st.Segments)
		}
		handler = server.NewHandler(coord, hc)
	}

	// Persistence, the same for every topology: recover the owned
	// backends from <store-dir>/shardN/ (both entry points run the one
	// phased routine), report, and start one snapshotter per shard. A
	// shard whose recovery failed has no log and runs fresh.
	var recs []*server.StoreRecovery
	var snapshotters sync.WaitGroup
	if *storeDir != "" {
		opts := store.Options{SegmentBytes: *segmentBytes, SnapshotEvery: *snapshotEvery, Clock: clock.Wall{}}
		if *shardID >= 0 {
			opts.Dir = server.ShardStoreDir(*storeDir, *shardID)
			rec, err := server.RecoverBackendStore(ctx, opts, "", local[0])
			if err != nil {
				return err
			}
			recs = []*server.StoreRecovery{rec}
		} else if recs, err = coord.RecoverStores(ctx, *storeDir, opts); err != nil {
			return err
		}
		if err := reportRecovery(*recoveryReport, recs); err != nil {
			return err
		}
		for i, rec := range recs {
			if rec.Log() != nil {
				snapshotters.Add(1)
				go snapshotter(ctx, &snapshotters, local[i], rec.Log())
			}
		}
	}

	if *pprofOn {
		fmt.Println("pprof: serving /debug/pprof/")
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("listening on %s\n", *addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight trips finish, bound
	// the wait so a wedged handler cannot block shutdown forever.
	fmt.Println("shutting down: draining in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainTimeoutS*float64(time.Second)))
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// Final checkpoint: the drained state lands in a snapshot so the
	// next boot restarts in O(tail)≈O(1) instead of replaying history.
	// The snapshotters have seen ctx end; join them first, so none is
	// mid-checkpoint when its store closes.
	snapshotters.Wait()
	for i, rec := range recs {
		if rec.Log() == nil {
			continue
		}
		if err := local[i].Checkpoint(); err != nil {
			log.Printf("warning: final checkpoint: %v", err)
		}
		if err := rec.Log().Close(); err != nil {
			log.Printf("warning: close store: %v", err)
		}
	}
	fmt.Println("shutdown complete")
	return nil
}

// snapshotter checkpoints one store-backed shard (seal + snapshot +
// compact) whenever its store signals that SnapshotEvery records have
// appended since the last snapshot, until ctx ends.
func snapshotter(ctx context.Context, done *sync.WaitGroup, b *server.Backend, l *server.StoreLog) {
	defer done.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-l.Store().SnapshotDue():
			if err := b.Checkpoint(); err != nil {
				log.Printf("warning: checkpoint: %v", err)
			}
		}
	}
}

// reportRecovery summarizes each shard's store recovery on the boot log
// and, given a path, lands the outcomes as a JSON artifact (CI uploads
// it; operators diff it across boots).
func reportRecovery(path string, recs []*server.StoreRecovery) error {
	for _, r := range recs {
		if r.Err != "" {
			fmt.Printf("store shard %d: RECOVERY FAILED: %s (shard starts fresh)\n", r.Shard, r.Err)
			continue
		}
		fmt.Printf("store shard %d: %s — %d trips replayed, %d skipped, %d scatter groups refolded (%d segments walked)\n",
			r.Shard, r.Report.Mode, r.TripsReplayed, r.TripsSkipped, r.ScatterReplayed, r.Report.SegmentsReplayed)
		for _, n := range r.Report.Notes {
			fmt.Printf("store shard %d: note: %s\n", r.Shard, n)
		}
	}
	if path == "" {
		return nil
	}
	blob, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write recovery report: %w", err)
	}
	fmt.Printf("recovery report written to %s\n", path)
	return nil
}

// loadOrSurvey restores a persisted fingerprint database, or surveys the
// stops and persists the result when a path is given. Only a missing
// file means "survey": a file that exists but does not load is the
// operator's, so boot fails naming it and leaves it as it is.
func loadOrSurvey(world *sim.World, surveyRuns int, seed uint64, path string) (*fingerprint.DB, error) {
	if path != "" {
		db, err := fingerprint.LoadFile(path)
		if err == nil {
			fmt.Printf("loaded fingerprint DB from %s (%d stops)\n", path, db.Len())
			return db, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("-fpdb %s: %w (file left untouched; move it aside to survey afresh)", path, err)
		}
		fmt.Printf("no DB at %s; surveying\n", path)
	}
	db, err := server.BuildFingerprintDB(world.Cells, world.Transit, surveyRuns, seed)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := db.SaveFile(path); err != nil {
			return nil, err
		}
		fmt.Printf("saved fingerprint DB to %s\n", path)
	}
	return db, nil
}
