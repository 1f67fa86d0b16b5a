package eval

import (
	"busprobe/internal/clock"
	"context"
	"fmt"
	"math"

	"busprobe/internal/phone"
	"busprobe/internal/sim"
)

// FaultSweepPoint is one row of the indicator-under-faults report.
type FaultSweepPoint struct {
	DropRate float64
	// DeliveredFrac is the fraction of the clean run's trips that
	// reached the backend with the retry layer enabled (retries recover
	// injected loss).
	DeliveredFrac float64
	// DeliveredNoRetry is the same fraction with the retry layer
	// disabled — the raw loss the retries are masking.
	DeliveredNoRetry float64
	// VisitRecall is this run's mapped stop visits relative to the
	// clean (drop-free) run.
	VisitRecall float64
	// MapMAE is the mean absolute error of the final traffic map
	// against the ground-truth automobile speed at each estimate's own
	// update time, over all estimated segments.
	MapMAE float64
	// Segments is the number of estimated segments in the final map.
	Segments int
}

// FaultSweep quantifies how the end-to-end indicator degrades with
// injected upload loss: for each drop rate it runs the same campaign
// through a seeded fault injector (with the phone retry layer enabled,
// so transient losses can be recovered) and reports trip delivery,
// stop-visit recall versus the clean run, and traffic-map error versus
// the simulation's ground-truth speeds. The paper's deployment rode a
// best-effort cellular uplink; this is the graceful-degradation curve
// that deployment implicitly relied on. The caller's ctx bounds every
// campaign in the sweep.
func FaultSweep(ctx context.Context, l *Lab, base sim.CampaignConfig, dropRates []float64) (Report, []FaultSweepPoint, error) {
	if len(dropRates) == 0 {
		dropRates = []float64{0, 0.1, 0.2, 0.4}
	}
	points := make([]FaultSweepPoint, 0, len(dropRates))
	cleanVisits, cleanAccepted := -1, -1
	for _, rate := range dropRates {
		cfg := base
		cfg.Faults.DropRate = rate
		if cfg.Faults.Seed == 0 {
			cfg.Faults.Seed = cfg.Seed ^ 0xfa5
		}
		cfg.UploadRetry = phone.DefaultRetryConfig(cfg.Seed ^ 0x7e7)
		run, err := RunCampaign(ctx, l, cfg, 0)
		if err != nil {
			return Report{}, nil, err
		}
		// Settle the estimator past the campaign's last window so every
		// delivered observation is folded before the map is read.
		run.Backend.Advance(float64(cfg.Days) * clock.DayS)

		bs := run.Backend.Stats()
		pt := FaultSweepPoint{DropRate: rate}
		// Unique valid trips the backend ingested; both ratios are
		// relative to the drop-free run, so the sweep isolates the
		// effect of loss from the campaign's own variability.
		accepted := bs.TripsReceived - bs.DuplicateTrips - bs.TripsRejected
		if rate == 0 {
			if cleanAccepted < 0 {
				cleanAccepted = accepted
			}
			if cleanVisits < 0 {
				cleanVisits = bs.VisitsMapped
			}
		}
		if cleanAccepted > 0 {
			pt.DeliveredFrac = float64(accepted) / float64(cleanAccepted)
		}
		if cleanVisits > 0 {
			pt.VisitRecall = float64(bs.VisitsMapped) / float64(cleanVisits)
		}

		// The same campaign without the retry layer: the raw loss curve
		// that the retries are masking.
		if rate == 0 {
			pt.DeliveredNoRetry = pt.DeliveredFrac
		} else if cleanAccepted > 0 {
			bare := base
			bare.Faults.DropRate = rate
			if bare.Faults.Seed == 0 {
				bare.Faults.Seed = bare.Seed ^ 0xfa5
			}
			bare.UploadRetry = phone.RetryConfig{}
			bareRun, err := RunCampaign(ctx, l, bare, 0)
			if err != nil {
				return Report{}, nil, err
			}
			bbs := bareRun.Backend.Stats()
			bareAccepted := bbs.TripsReceived - bbs.DuplicateTrips - bbs.TripsRejected
			pt.DeliveredNoRetry = float64(bareAccepted) / float64(cleanAccepted)
		}

		snap := run.Backend.TrafficSnapshot().Estimates
		var sumAbs float64
		for sid, est := range snap {
			truth := l.World.Field.CarKmh(sid, est.UpdatedS)
			sumAbs += math.Abs(est.SpeedKmh - truth)
		}
		if len(snap) > 0 {
			pt.MapMAE = sumAbs / float64(len(snap))
		}
		pt.Segments = len(snap)
		points = append(points, pt)
	}

	tbl := newTable("drop rate", "delivered (no retry)", "delivered (retry)", "visit recall", "map MAE (km/h)", "segments")
	metrics := make(map[string]float64)
	for _, pt := range points {
		tbl.addRowf("%.0f%%|%.2f|%.2f|%.2f|%.1f|%d",
			100*pt.DropRate, pt.DeliveredNoRetry, pt.DeliveredFrac, pt.VisitRecall, pt.MapMAE, pt.Segments)
		key := fmt.Sprintf("drop%02.0f", 100*pt.DropRate)
		metrics[key+"_delivered"] = pt.DeliveredFrac
		metrics[key+"_delivered_noretry"] = pt.DeliveredNoRetry
		metrics[key+"_recall"] = pt.VisitRecall
		metrics[key+"_mae"] = pt.MapMAE
		metrics[key+"_segments"] = float64(pt.Segments)
	}
	text := tbl.String() +
		"\n(delivery and visit recall are relative to the drop-free run; map MAE\n" +
		"compares each segment's final estimate to the ground-truth car speed at\n" +
		"its update time)\n"
	return Report{
		Name:    "Indicator under faults — loss-rate sweep",
		Text:    text,
		Metrics: metrics,
	}, points, nil
}
