package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"busprobe/internal/lab"
	"busprobe/internal/probe"
	"busprobe/internal/sim"
	"busprobe/internal/stats"
)

// The city and its riders are fixed: every run boots the server over
// the same world and fingerprint database and uploads trips of the
// same population; --seed decides the order they arrive in, and so
// which of them a run gets to. A seed that drew a new population moved
// per-trip cost by ±8 % (restart read 468–568 ms over six seeds on a
// quiet machine), which is more than the run-to-run noise the
// benchmark has to stay under; a seed that also moved the streets would
// add city-to-city variation on top.
const (
	worldSeed  = 1
	riderSeed  = 1
	surveyRuns = 4
)

// sizes are the workload dimensions. The defaults fit the contract's
// time cap (92 runs in 3420 s); the smoke test shrinks them.
type sizes struct {
	// world is the preset the server boots with.
	world string
	// riders is the simulated population; each rides about three trips.
	riders int
	// setupReps is how many times each workload sets up; setup_s is
	// the median and the last set-up serves the measured phase.
	setupReps int
	// warmup is the trips uploaded before an ingest phase is timed.
	warmup int
	// batch is the trips per /v1/trips/batch request.
	batch int
	// preload is the trips batch-ingested before read_mixed reads.
	preload int
	// writeHz paces read_mixed's single-trip writer.
	writeHz float64
	// snapTrips land in restart's drain snapshot, tailTrips in the log
	// tail every restart cycle replays.
	snapTrips, tailTrips int
	// minCycles is the least restart cycles measured.
	minCycles int
	// ledgerTrips is the corpus slice the per-layer ledger times.
	ledgerTrips int
}

// defaultSizes are the committed workload dimensions.
func defaultSizes() sizes {
	return sizes{
		world:       "paper",
		riders:      14500,
		setupReps:   3,
		warmup:      1000,
		batch:       64,
		preload:     3000,
		writeHz:     50,
		snapTrips:   4000,
		tailTrips:   1000,
		minCycles:   5,
		ledgerTrips: 1000,
	}
}

// corpus is the deterministic upload stream of one run: the fixed
// population's day of trips in an order shuffled by the seed (phones
// upload when they find connectivity, not when the trip ends). Every
// trip is simulated — sim.StreamTrips gives each cohort of
// sim.DefaultCohortSize riders its own identities, RNG streams and copy
// of the day's bus service — so no upload repeats another's samples,
// and a content-keyed cache inside the server gains nothing here that
// it would not gain in the field. The stream is finite: a phase that
// reaches its end stops there.
type corpus struct {
	dep *lab.Deployment
	// trips is the population's day in upload order.
	trips []probe.Trip
}

// newDeployment builds the in-process mirror of the server's world.
func newDeployment(world string) (*lab.Deployment, error) {
	cfg, err := sim.PresetWorldConfig(world)
	if err != nil {
		return nil, err
	}
	cfg.Seed = worldSeed
	return lab.NewDeployment(cfg, surveyRuns)
}

// simulateRiders simulates the fixed population's day, in conclusion
// order cohort by cohort.
func simulateRiders(ctx context.Context, dep *lab.Deployment, riders int) ([]probe.Trip, error) {
	cfg := sim.DefaultCampaignConfig()
	cfg.Days = 1
	cfg.Participants = riders
	cfg.SparseTripsPerDay = 3
	cfg.IntensiveTripsPerDay = 3
	cfg.IntensiveFromDay = 0
	cfg.Seed = riderSeed
	var day []probe.Trip
	_, err := sim.StreamTrips(ctx, dep.World, sim.StreamConfig{Campaign: cfg},
		func(t probe.Trip) error {
			day = append(day, t)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("bench: corpus: %w", err)
	}
	if len(day) == 0 {
		return nil, fmt.Errorf("bench: corpus: the campaign concluded no trips")
	}
	return day, nil
}

// cachedRiders returns the population, simulating it only when this
// very executable has not done so before in this checkout. The
// population is the same for every seed and workload, simulating a
// trip costs what ingesting it does (≈40 s for the lot), and the
// driver's 92 runs have a hard time cap; the cache file is keyed by the
// hash of the running executable, so any change to the simulator (or
// to this file) misses it. A cache that cannot be read or written only
// costs the simulation.
func cachedRiders(ctx context.Context, dep *lab.Deployment, sz sizes, dir string) ([]probe.Trip, error) {
	path := ""
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			path = filepath.Join(dir, fmt.Sprintf("riders-%s-%d-%x.gob", sz.world, sz.riders, sum[:8]))
		}
	}
	if f, err := os.Open(path); err == nil {
		var day []probe.Trip
		err := gob.NewDecoder(f).Decode(&day)
		f.Close() //lint:allow errcheckio the file was only read
		if err == nil && len(day) > 0 {
			return day, nil
		}
	}
	day, err := simulateRiders(ctx, dep, sz.riders)
	if err != nil || path == "" {
		return day, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(day); err != nil {
		return nil, err
	}
	// An older executable's population is dead weight: drop it. Then
	// write and rename, so a run that dies here leaves no torn cache.
	if old, err := filepath.Glob(filepath.Join(dir, "riders-*.gob")); err == nil {
		for _, f := range old {
			_ = os.Remove(f) // a stale cache that cannot be removed only wastes disk
		}
	}
	if err := os.WriteFile(path+".tmp", buf.Bytes(), 0o644); err == nil {
		err = os.Rename(path+".tmp", path)
		if err != nil {
			log.Printf("warning: rider cache: %v", err)
		}
	}
	return day, nil
}

// newCorpus shuffles the population's upload order by the seed. Trips
// share their samples with the population (read-only).
func newCorpus(dep *lab.Deployment, population []probe.Trip, seed uint64) *corpus {
	c := &corpus{dep: dep, trips: make([]probe.Trip, len(population))}
	for i, j := range stats.NewRNG(seed).Perm(len(population)) {
		c.trips[i] = population[j]
	}
	return c
}
