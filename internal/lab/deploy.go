// Package lab is the conformance + load harness: it boots the real
// busprobe-server binary in any of its process topologies (monolith, N
// in-process shards, N shard processes behind a coordinator), drives it
// over HTTP with named scenarios — clean, chaos, sharded, shard-procs,
// drain-under-load, surge — and emits exactly one standard JSON result
// per suite: pass/fail with reasons, latency percentiles, throughput,
// byte-equivalence of /v1/traffic against a reference run, and (for
// surge) a bounded-memory verdict. An optional gate compares a run's
// results against the committed ci-envelope.json — an
// order-of-magnitude tripwire for CI; performance numbers come from
// the bench/ module.
//
// The package is also the shared home of the simulated-deployment
// bundle (world + serving config + fingerprint DB) that the evaluation
// suite and the benchmarks replay against; eval.Lab embeds Deployment
// rather than keeping private replay plumbing.
package lab

import (
	"context"
	"fmt"

	"busprobe/internal/core/fingerprint"
	"busprobe/internal/probe"
	"busprobe/internal/server"
	"busprobe/internal/sim"
)

// Deployment bundles the simulated deployment every experiment and
// scenario runs against: the world, the backend configuration, and a
// surveyed fingerprint database. A server process booted from the same
// world preset and seed derives a byte-identical bundle, which is what
// lets the harness replay a corpus in-process as the reference for a
// run against the real binary.
type Deployment struct {
	World *sim.World
	Cfg   server.Config
	FPDB  *fingerprint.DB
}

// NewDeployment assembles a deployment over a world configuration,
// surveying the fingerprint database with surveyRuns passes per stop
// under server.SurveySeed, like busprobe-server at boot.
func NewDeployment(worldCfg sim.WorldConfig, surveyRuns int) (*Deployment, error) {
	w, err := sim.BuildWorld(worldCfg)
	if err != nil {
		return nil, err
	}
	cfg := server.DefaultConfig()
	fpdb, err := server.BuildFingerprintDB(w.Cells, w.Transit, surveyRuns, cfg, server.SurveySeed(worldCfg.Seed))
	if err != nil {
		return nil, err
	}
	return &Deployment{World: w, Cfg: cfg, FPDB: fpdb}, nil
}

// NewBackend creates a fresh monolithic backend over the deployment's
// databases.
func (d *Deployment) NewBackend() (*server.Backend, error) {
	return server.NewBackend(d.Cfg, d.World.Transit, d.FPDB)
}

// NewCoordinator creates a fresh shards-way coordinator over the
// deployment's databases.
func (d *Deployment) NewCoordinator(shards int) (*server.Coordinator, error) {
	return server.NewCoordinator(d.Cfg, d.World.Transit, d.FPDB, shards)
}

// CollectTrips runs a campaign whose uploads are recorded rather than
// processed (sim.RecordTrips), returning every concluded trip in upload
// order — the raw corpus scenarios and benchmarks replay through the
// serial, batched, sharded, and over-the-wire ingest paths.
func CollectTrips(ctx context.Context, d *Deployment, cfg sim.CampaignConfig) ([]probe.Trip, error) {
	trips, _, err := sim.RecordTrips(ctx, d.World, cfg)
	if err != nil {
		return nil, fmt.Errorf("lab: %w", err)
	}
	return trips, nil
}

// ReplayTrips feeds a recorded corpus through a fresh backend as one
// batch with the given compute parallelism (workers <= 1 computes
// serially); the outcome is the same for every worker count, because
// admission and fold keep the input order.
func (d *Deployment) ReplayTrips(ctx context.Context, trips []probe.Trip, workers int) (*server.Backend, error) {
	b, err := d.NewBackend()
	if err != nil {
		return nil, err
	}
	for i, res := range b.ProcessTrips(ctx, trips, max(workers, 1)) {
		if res.Err != nil {
			return nil, fmt.Errorf("lab: replay trip %d (%s): %w", i, trips[i].ID, res.Err)
		}
	}
	return b, nil
}
