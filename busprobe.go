// Package busprobe is a participatory urban traffic monitoring system,
// reproducing "Urban Traffic Monitoring with the Help of Bus Riders"
// (Zhou, Jiang, Li — IEEE ICDCS 2015) as a self-contained Go library.
//
// The system turns public buses into traffic probes without cooperating
// transit agencies or GPS: bus riders' phones detect IC-card reader
// beeps, attach a cellular scan to each, and upload anonymous trips; a
// backend matches the scans to a bus-stop fingerprint database with a
// modified Smith–Waterman alignment, clusters them into stop visits,
// resolves the visit sequence under bus-route order constraints, and
// converts inter-stop bus travel times into a city traffic map.
//
// This package is the high-level facade: it assembles the simulated city
// (road grid, bus network, cellular deployment, traffic ground truth),
// the backend server, and the rider campaign, and runs them end to end.
// The building blocks live in internal packages — see DESIGN.md for the
// full map — and the experiment harness regenerating every table and
// figure of the paper lives in internal/eval, driven by
// cmd/busprobe-experiments and the root benchmark suite.
package busprobe

import (
	"context"
	"fmt"

	"busprobe/internal/core/traffic"
	"busprobe/internal/eval"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/server"
	"busprobe/internal/server/stage"
	"busprobe/internal/sim"
)

// Options configures a System. The zero value is NOT usable; start from
// DefaultOptions.
type Options struct {
	// World configures the simulated city (extent, routes, radio,
	// ground-truth traffic).
	World sim.WorldConfig
	// Backend holds the backend's operational settings (admission,
	// observability); the matching, clustering, mapping and estimation
	// stages always run the paper's constants.
	Backend server.Config
	// SurveyRuns is the number of fingerprint-survey passes per stop
	// platform used to bootstrap the stop database.
	SurveyRuns int
}

// DefaultOptions mirrors the paper's deployment: a 7 km x 4 km city,
// 8 bus routes, ~600 m cell spacing, and the published algorithm
// constants (gamma = 2, epsilon = 0.6, b = 0.5, T = 5 min).
func DefaultOptions() Options {
	return Options{
		World:      sim.DefaultWorldConfig(),
		SurveyRuns: 4,
	}
}

// System is an assembled deployment: city, fingerprint DB, and backend.
type System struct {
	opts Options
	lab  *eval.Lab
	back *server.Backend
}

// New assembles a system from options.
func New(opts Options) (*System, error) {
	if opts.SurveyRuns <= 0 {
		return nil, fmt.Errorf("busprobe: SurveyRuns must be positive")
	}
	lab, err := eval.NewLab(opts.World, opts.SurveyRuns)
	if err != nil {
		return nil, err
	}
	lab.Cfg = opts.Backend
	back, err := lab.NewBackend()
	if err != nil {
		return nil, err
	}
	return &System{opts: opts, lab: lab, back: back}, nil
}

// World returns the simulated city.
func (s *System) World() *sim.World { return s.lab.World }

// Backend returns the traffic-monitoring server core. Use
// server.Handler(sys.Backend()) to serve it over HTTP.
func (s *System) Backend() *server.Backend { return s.back }

// Lab exposes the experiment harness bound to this system's city and
// fingerprint database.
func (s *System) Lab() *eval.Lab { return s.lab }

// RunCampaign simulates a rider data-collection campaign feeding this
// system's backend, returning the campaign statistics. Set
// cfg.UploadBatchSize > 1 to deliver trips through the backend's
// concurrent batch-ingest path.
func (s *System) RunCampaign(ctx context.Context, cfg sim.CampaignConfig) (sim.CampaignStats, error) {
	camp, err := sim.NewCampaign(s.lab.World, cfg, s.back, nil)
	if err != nil {
		return sim.CampaignStats{}, err
	}
	camp.MinuteHook = func(tS float64) { s.back.Advance(tS) }
	return camp.Run(ctx)
}

// IngestBatch feeds pre-recorded trips through the backend's
// concurrent batch-ingest pipeline (workers <= 0 uses the backend's
// configured parallelism), returning the per-trip outcomes in input
// order.
func (s *System) IngestBatch(ctx context.Context, trips []probe.Trip, workers int) []server.TripResult {
	return s.back.ProcessTrips(ctx, trips, workers)
}

// StageMetrics snapshots the backend pipeline's per-stage
// instrumentation counters (runs, items, drops, cumulative duration).
func (s *System) StageMetrics() []stage.Metrics {
	return s.back.StageMetrics()
}

// Traffic returns the current per-segment traffic estimates.
func (s *System) Traffic() map[road.SegmentID]traffic.Estimate {
	return s.back.TrafficSnapshot().CloneEstimates()
}
