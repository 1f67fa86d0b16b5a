// Command busprobe-sim runs a rider data-collection campaign over the
// simulated city. By default it feeds an in-process backend and prints
// the resulting traffic map summary; with -server it uploads trips to a
// running busprobe-server over HTTP instead (the server must have been
// started with the same -seed so the fingerprint DB matches the city).
//
// Usage:
//
//	busprobe-sim [-days 2] [-participants 22] [-seed 1] [-server URL]
//	             [-shards N] [-upload-batch N] [-fault-drop R]
//	             [-fault-dup R] [-fault-reorder R] [-fault-delay R]
//	             [-fault-corrupt R] [-upload-retries N]
//
// With -upload-batch > 1, concluded trips are buffered and delivered
// through the backend's concurrent batch-ingest path (POST
// /v1/trips/batch against a remote server) instead of one at a time.
//
// The -fault-* rates route every upload through a seeded fault
// injector (chaos campaign); -upload-retries enables the phone-side
// retry/backoff/spool layer so injected losses can be recovered.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"time"

	"busprobe/internal/core/traffic"
	"busprobe/internal/faults"
	"busprobe/internal/phone"
	"busprobe/internal/server"
	"busprobe/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("busprobe-sim: ")

	days := flag.Int("days", 2, "campaign length in days")
	participants := flag.Int("participants", 22, "app-carrying riders")
	tripsPerDay := flag.Float64("trips-per-day", 4, "mean rides per participant per day")
	seed := flag.Uint64("seed", 1, "master seed (must match the server's)")
	serverURL := flag.String("server", "", "backend URL; empty runs in-process")
	shards := flag.Int("shards", 1, "region shards for the in-process backend (1 = monolithic)")
	uploadBatch := flag.Int("upload-batch", 0, "buffer trips and ingest in concurrent batches of this size (0/1 = immediate)")
	faultDrop := flag.Float64("fault-drop", 0, "probability of losing an uploaded trip")
	faultDup := flag.Float64("fault-dup", 0, "probability of duplicating an uploaded trip")
	faultReorder := flag.Float64("fault-reorder", 0, "probability of reordering an uploaded trip")
	faultDelay := flag.Float64("fault-delay", 0, "probability of delaying an uploaded trip until campaign end")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "probability of corrupting an uploaded trip")
	uploadRetries := flag.Int("upload-retries", 0, "phone-side upload attempts per trip (0 disables the retry layer)")
	flag.Parse()

	fcfg := faults.Config{
		DropRate:    *faultDrop,
		DupRate:     *faultDup,
		ReorderRate: *faultReorder,
		DelayRate:   *faultDelay,
		CorruptRate: *faultCorrupt,
	}
	if err := run(*days, *participants, *tripsPerDay, *seed, *serverURL, *shards, *uploadBatch, fcfg, *uploadRetries); err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

func run(days, participants int, tripsPerDay float64, seed uint64, serverURL string, shards, uploadBatch int, fcfg faults.Config, uploadRetries int) error {
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1")
	}
	worldCfg := sim.DefaultWorldConfig()
	worldCfg.Seed = seed
	world, err := sim.BuildWorld(worldCfg)
	if err != nil {
		return err
	}

	var uploader phone.Uploader
	var backend server.API
	if serverURL == "" {
		cfg := server.DefaultConfig()
		fpdb, err := server.BuildFingerprintDB(world.Cells, world.Transit, 4, cfg, server.SurveySeed(seed))
		if err != nil {
			return err
		}
		coord, err := server.NewCoordinator(cfg, world.Transit, fpdb, shards)
		if err != nil {
			return err
		}
		backend = coord
		uploader = coord
	} else {
		client, err := server.NewClient(serverURL, &http.Client{Timeout: 10 * time.Second})
		if err != nil {
			return err
		}
		if !client.Healthy(context.Background()) {
			return fmt.Errorf("backend at %s is not healthy", serverURL)
		}
		uploader = client
	}

	campCfg := sim.DefaultCampaignConfig()
	campCfg.Days = days
	campCfg.Participants = participants
	campCfg.SparseTripsPerDay = tripsPerDay
	campCfg.IntensiveTripsPerDay = tripsPerDay
	campCfg.IntensiveFromDay = 0
	campCfg.Seed = seed ^ 0xca
	campCfg.UploadBatchSize = uploadBatch
	campCfg.Faults = fcfg
	if uploadRetries > 0 {
		campCfg.UploadRetry = phone.DefaultRetryConfig(seed ^ 0x7e7)
		campCfg.UploadRetry.MaxAttempts = uploadRetries
	}

	camp, err := sim.NewCampaign(world, campCfg, uploader, nil)
	if err != nil {
		return err
	}
	if backend != nil {
		camp.MinuteHook = func(tS float64) { backend.Advance(tS) }
	}

	fmt.Printf("running %d-day campaign: %d participants, %.1f trips/day each...\n",
		days, participants, tripsPerDay)
	st, err := camp.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("campaign: %d bus runs, %d stop visits (%d skipped), %d card beeps,\n"+
		"          %d participant rides, %d cellular scans\n",
		st.BusRuns, st.Visits, st.SkippedVisits, st.Beeps, st.ParticipantTrips, st.ScansTaken)
	if st.RidingSeconds > 0 {
		fmt.Printf("app cost: %.1f rider-hours on buses, %.0f J total (~%.1f J per ride)\n",
			st.RidingSeconds/3600, st.AppEnergyJ,
			st.AppEnergyJ/float64(st.ParticipantTrips))
	}

	if st.BatchFlushes > 0 {
		fmt.Printf("batched ingest: %d flushes, %d upload failures\n", st.BatchFlushes, st.UploadFailures)
	}
	if st.FaultTripsOffered > 0 {
		fmt.Printf("fault injection: %d offers, %d dropped, %d duplicated, %d reordered, %d delayed, %d corrupted → %d delivered\n",
			st.FaultTripsOffered, st.FaultTripsDropped, st.FaultTripsDuplicated,
			st.FaultTripsReordered, st.FaultTripsDelayed, st.FaultTripsCorrupted, st.FaultTripsDelivered)
		fmt.Printf("upload outcomes: %d duplicates absorbed, %d failures (%d dropped, %d shed, %d invalid), %d retries, %d spool-recovered\n",
			st.UploadDuplicates, st.UploadFailures, st.UploadsDropped, st.UploadsShed,
			st.UploadsInvalid, st.UploadRetries, st.UploadSpoolRecovered)
	}
	if backend == nil {
		fmt.Println("trips uploaded to remote backend; query it for the traffic map")
		return nil
	}
	bs := backend.Stats()
	fmt.Printf("backend: %d trips, %d/%d samples matched, %d visits mapped, %d observations\n",
		bs.TripsReceived, bs.SamplesMatched, bs.SamplesReceived, bs.VisitsMapped, bs.Observations)
	if shards > 1 {
		fmt.Println("shards:")
		for _, sh := range backend.ShardStatuses() {
			fmt.Printf("  shard %d: %d routes, %d stops, %d segments, %d trips, %d observations\n",
				sh.Shard, sh.Routes, sh.Stops, sh.Segments,
				sh.Stats.TripsReceived, sh.Stats.Observations)
		}
	}
	fmt.Println("pipeline stages:")
	for _, m := range backend.StageMetrics() {
		fmt.Printf("  %-9s runs=%-6d in=%-7d out=%-7d dropped=%-5d %.1fms\n",
			m.Stage, m.Runs, m.ItemsIn, m.ItemsOut, m.Dropped,
			float64(m.DurationNs)/1e6)
	}

	snap := backend.TrafficSnapshot().Estimates
	counts := make(map[traffic.Level]int)
	var speeds []float64
	for _, est := range snap {
		counts[traffic.LevelOf(est.SpeedKmh)]++
		speeds = append(speeds, est.SpeedKmh)
	}
	sort.Float64s(speeds)
	fmt.Printf("traffic map: %d segments estimated\n", len(snap))
	for lv := traffic.LevelVerySlow; lv <= traffic.LevelVeryFast; lv++ {
		fmt.Printf("  %-10s %d\n", lv, counts[lv])
	}
	if len(speeds) > 0 {
		fmt.Printf("  median speed %.1f km/h\n", speeds[len(speeds)/2])
	}
	return nil
}
