package eval

import (
	"busprobe/internal/clock"
	"context"
	"fmt"
	"math"

	"busprobe/internal/core/traffic"
	"busprobe/internal/road"
	"busprobe/internal/server"
	"busprobe/internal/sim"
	"busprobe/internal/stats"
)

// TrafficSnapshot is one captured traffic-map state.
type TrafficSnapshot struct {
	TimeS     float64
	Estimates map[road.SegmentID]traffic.Estimate
}

// CampaignRun bundles the artifacts of a simulated campaign evaluated
// against a backend: periodic snapshots plus the final backend state.
type CampaignRun struct {
	Lab       *Lab
	Backend   *server.Backend
	Stats     sim.CampaignStats
	Snapshots []TrafficSnapshot
	// SnapshotEveryS is the capture interval used.
	SnapshotEveryS float64
}

// RunCampaign executes a campaign against a fresh backend, capturing a
// traffic-map snapshot every snapshotEveryS seconds of simulated time.
func RunCampaign(ctx context.Context, l *Lab, cfg sim.CampaignConfig, snapshotEveryS float64) (*CampaignRun, error) {
	b, err := l.NewBackend()
	if err != nil {
		return nil, err
	}
	run := &CampaignRun{Lab: l, Backend: b, SnapshotEveryS: snapshotEveryS}
	camp, err := sim.NewCampaign(l.World, cfg, b, nil)
	if err != nil {
		return nil, err
	}
	lastSnap := -snapshotEveryS
	camp.MinuteHook = func(tS float64) {
		b.Advance(tS)
		if snapshotEveryS > 0 && tS-lastSnap >= snapshotEveryS {
			run.Snapshots = append(run.Snapshots, TrafficSnapshot{
				TimeS:     tS,
				Estimates: b.TrafficSnapshot().Estimates,
			})
			lastSnap = tS
		}
	}
	st, err := camp.Run(ctx)
	if err != nil {
		return nil, err
	}
	run.Stats = st
	return run, nil
}

// SnapshotNear returns the captured snapshot closest to the requested
// time.
func (r *CampaignRun) SnapshotNear(tS float64) (TrafficSnapshot, bool) {
	return r.nearestSnapshot(tS)
}

// nearestSnapshot returns the snapshot closest to the requested time.
func (r *CampaignRun) nearestSnapshot(tS float64) (TrafficSnapshot, bool) {
	if len(r.Snapshots) == 0 {
		return TrafficSnapshot{}, false
	}
	best := r.Snapshots[0]
	for _, s := range r.Snapshots[1:] {
		if math.Abs(s.TimeS-tS) < math.Abs(best.TimeS-tS) {
			best = s
		}
	}
	return best, true
}

// Fig9TrafficMap regenerates Fig. 9: traffic-map snapshots at 08:30 and
// 17:00 on an intensive-participation day, reporting the five-level
// speed distribution, the covered share of the road network (paper:
// >50% of roads from only 8 routes), and the morning-vs-evening speed
// contrast (the paper's region is slower at 08:30).
func Fig9TrafficMap(l *Lab, day int, run *CampaignRun) (Report, error) {
	morning, ok := run.nearestSnapshot(float64(day)*clock.DayS + 8.5*3600)
	if !ok {
		return Report{}, fmt.Errorf("eval: no snapshots captured")
	}
	evening, _ := run.nearestSnapshot(float64(day)*clock.DayS + 17*3600)

	// freshS bounds how old an estimate may be to describe "now"; the
	// rendered map keeps older values, but the morning/evening contrast
	// must compare current conditions.
	const freshS = 2700.0
	levelCounts := func(s TrafficSnapshot) (map[traffic.Level]int, float64) {
		counts := make(map[traffic.Level]int)
		var sum float64
		n := 0
		for _, est := range s.Estimates {
			counts[traffic.LevelOf(est.SpeedKmh)]++
			if s.TimeS-est.UpdatedS <= freshS {
				sum += est.SpeedKmh
				n++
			}
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		return counts, mean
	}
	mCounts, mMean := levelCounts(morning)
	eCounts, eMean := levelCounts(evening)

	// Paired congestion contrast: segments freshly estimated in BOTH
	// snapshots, normalized by free-flow speed so arterials and locals
	// mix fairly.
	net0 := l.World.Net
	var pairedM, pairedE stats.Accumulator
	for sid, em := range morning.Estimates {
		if morning.TimeS-em.UpdatedS > freshS {
			continue
		}
		ee, ok := evening.Estimates[sid]
		if !ok || evening.TimeS-ee.UpdatedS > freshS {
			continue
		}
		free := net0.Segment(sid).FreeKmh
		pairedM.Add(em.SpeedKmh / free)
		pairedE.Add(ee.SpeedKmh / free)
	}

	// Coverage: directed segments with estimates vs undirected road
	// length, matching the paper's "coverage for the roads".
	tdb := l.World.Transit
	net := l.World.Net
	covered := make(map[road.SegmentID]bool)
	for sid := range evening.Estimates {
		key := sid
		if rev := net.Segment(sid).Reverse; rev >= 0 && rev < key {
			key = rev
		}
		covered[key] = true
	}
	var coveredLen float64
	for sid := range covered {
		coveredLen += net.Segment(sid).LengthM()
	}
	coverage := coveredLen / net.UndirectedLengthM()
	routeCoverage := tdb.CoverageRatio(1)

	tbl := newTable("Level", "08:30 segments", "17:00 segments")
	for lv := traffic.LevelVerySlow; lv <= traffic.LevelVeryFast; lv++ {
		tbl.addRowf("%s|%d|%d", lv, mCounts[lv], eCounts[lv])
	}
	text := tbl.String() + fmt.Sprintf(
		"\nmean fresh estimate: 08:30 = %.1f km/h, 17:00 = %.1f km/h\n"+
			"paired fresh segments (%d): mean speed / free-flow = %.2f at 08:30 vs %.2f at 17:00 (paper: morning slower)\n"+
			"estimated-segment coverage of road length: %.1f%% (routes cover %.1f%%; paper: >50%%)\n",
		mMean, eMean, pairedM.N(), pairedM.Mean(), pairedE.Mean(),
		100*coverage, 100*routeCoverage)

	return Report{
		Name: "Fig. 9 — traffic map snapshots (08:30 / 17:00)",
		Text: text,
		Metrics: map[string]float64{
			"morning_mean_kmh": mMean,
			"evening_mean_kmh": eMean,
			"paired_morning":   pairedM.Mean(),
			"paired_evening":   pairedE.Mean(),
			"paired_n":         float64(pairedM.N()),
			"coverage":         coverage,
			"route_coverage":   routeCoverage,
			"morning_segments": float64(len(morning.Estimates)),
			"evening_segments": float64(len(evening.Estimates)),
		},
	}, nil
}
