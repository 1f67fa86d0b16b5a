package eval

import (
	"fmt"

	"busprobe/internal/cellular"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/traffic"
	"busprobe/internal/geo"
	"busprobe/internal/gps"
	"busprobe/internal/phone"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

// AblationMismatchPenalty regenerates the §III-C(1) design study: sweep
// the Smith–Waterman mismatch/gap penalty over 0.1-0.9 and measure
// per-sample stop matching accuracy. The paper found 0.3 best.
func AblationMismatchPenalty(l *Lab, samplesPerStop int, seed uint64) (Report, error) {
	if samplesPerStop <= 0 {
		return Report{}, fmt.Errorf("eval: non-positive sample count")
	}
	rng := stats.NewRNG(seed).Fork("ablation-penalty")
	tdb := l.World.Transit

	// Pre-collect evaluation scans: per stop, samplesPerStop scans at
	// one of its platforms under mixed conditions.
	type labelled struct {
		stop transit.StopID
		fp   cellular.Fingerprint
	}
	var evalSet []labelled
	for _, st := range tdb.Stops() {
		p := tdb.Platform(st.Platforms[0])
		for k := 0; k < samplesPerStop; k++ {
			cond := cellular.Condition{OnBus: k%2 == 0, Weather: rng.Range(-1, 1)}
			fp := l.World.Cells.ScanFingerprint(p.Pos, cond, rng)
			if len(fp) > 0 {
				evalSet = append(evalSet, labelled{stop: st.ID, fp: fp})
			}
		}
	}

	tbl := newTable("penalty", "accuracy")
	metrics := make(map[string]float64)
	var bestPen, bestAcc float64
	for pen := 0.1; pen <= 0.91; pen += 0.1 {
		sc := fingerprint.Scoring{Match: 1, Mismatch: pen, Gap: pen}
		// Rebuild the DB under this scoring (medoid selection depends
		// on the scoring too).
		surveyRNG := stats.NewRNG(seed ^ 0xdb).Fork("ablation-survey")
		entries := make(map[transit.StopID]cellular.Fingerprint, tdb.NumStops())
		for _, st := range tdb.Stops() {
			var samples []cellular.Fingerprint
			for r := 0; r < 4; r++ {
				cond := cellular.Condition{OnBus: r%2 == 1, Weather: surveyRNG.Range(-1, 1)}
				for _, pid := range st.Platforms {
					fp := l.World.Cells.ScanFingerprint(tdb.Platform(pid).Pos, cond, surveyRNG)
					if len(fp) > 0 {
						samples = append(samples, fp)
					}
				}
			}
			fp, err := fingerprint.Representative(samples, sc)
			if err != nil {
				return Report{}, fmt.Errorf("eval: stop %d: %w", st.ID, err)
			}
			entries[st.ID] = fp
		}
		db, err := fingerprint.NewDB(sc, fingerprint.DefaultGamma, entries)
		if err != nil {
			return Report{}, err
		}
		correct := 0
		for _, ev := range evalSet {
			if m, ok := db.Match(ev.fp); ok && m.Stop == ev.stop {
				correct++
			}
		}
		acc := float64(correct) / float64(len(evalSet))
		tbl.addRowf("%.1f|%.3f", pen, acc)
		metrics[fmt.Sprintf("acc_%.1f", pen)] = acc
		if acc > bestAcc {
			bestAcc, bestPen = acc, pen
		}
	}
	metrics["best_penalty"] = bestPen
	metrics["best_acc"] = bestAcc
	text := tbl.String() + fmt.Sprintf(
		"\nbest penalty %.1f (accuracy %.3f); paper selected 0.3\n", bestPen, bestAcc)
	return Report{
		Name:    "§III-C ablation — mismatch penalty sweep",
		Text:    text,
		Metrics: metrics,
	}, nil
}

// AblationWeather measures stop-identification robustness across
// weather: the survey was collected "on days of different weather
// conditions" (§III-A) exactly because rain shifts RSS; matching must
// hold up when evaluation weather differs from survey weather.
func AblationWeather(l *Lab, perStop int, seed uint64) (Report, error) {
	if perStop <= 0 {
		return Report{}, fmt.Errorf("eval: non-positive trial count")
	}
	rng := stats.NewRNG(seed).Fork("ablation-weather")
	tdb := l.World.Transit
	tbl := newTable("weather", "accuracy")
	metrics := make(map[string]float64)
	for _, weather := range []float64{-1, -0.5, 0, 0.5, 1} {
		correct, total := 0, 0
		for _, st := range tdb.Stops() {
			p := tdb.Platform(st.Platforms[0])
			for k := 0; k < perStop; k++ {
				cond := cellular.Condition{OnBus: k%2 == 0, Weather: weather}
				fp := l.World.Cells.ScanFingerprint(p.Pos, cond, rng)
				if len(fp) == 0 {
					continue
				}
				total++
				if m, ok := l.FPDB.Match(fp); ok && m.Stop == st.ID {
					correct++
				}
			}
		}
		if total == 0 {
			return Report{}, fmt.Errorf("eval: no scans at weather %v", weather)
		}
		acc := float64(correct) / float64(total)
		tbl.addRowf("%+.1f|%.3f", weather, acc)
		metrics[fmt.Sprintf("acc_%+.1f", weather)] = acc
	}
	text := tbl.String() +
		"\nrank-order matching absorbs the global RSS shifts weather causes; accuracy stays flat\n"
	return Report{
		Name:    "§III-A ablation — stop identification vs weather",
		Text:    text,
		Metrics: metrics,
	}, nil
}

// AblationFusion compares the paper's Bayesian variance-weighted fusion
// (Eq. 4) against a naive latest-window estimator on ground-truth
// tracking error, over one segment's day of synthetic observations.
func AblationFusion(l *Lab, seed uint64) (Report, error) {
	rng := stats.NewRNG(seed).Fork("ablation-fusion")
	field := l.World.Field
	segs := pickBusySegments(l, 4)
	if len(segs) == 0 {
		return Report{}, fmt.Errorf("eval: no covered segments")
	}

	var bayesErr, naiveErr, staticErr stats.Accumulator
	for _, sid := range segs {
		var fused, static traffic.Estimate
		for t := 7 * 3600.0; t < 21*3600; t += 300 {
			truth := field.CarKmh(sid, t)
			// A window of 1-4 noisy reports.
			n := 1 + rng.Intn(4)
			var win stats.Accumulator
			for k := 0; k < n; k++ {
				win.Add(truth + rng.Norm(0, 6))
			}
			v := win.Mean()
			varV := win.Var()
			if win.N() < 2 || varV <= 0 {
				varV = traffic.DefaultSingleReportVar
			}
			// Tracking fusion: Eq. 4 with process-noise inflation.
			fused = traffic.Fuse(traffic.Inflate(fused, t, traffic.DefaultDriftVarPerS), v, varV)
			fused.UpdatedS = t
			// Static fusion: pure Eq. 4 (no forgetting).
			static = traffic.Fuse(static, v, varV)
			bayesErr.Add(abs(fused.SpeedKmh - truth))
			staticErr.Add(abs(static.SpeedKmh - truth))
			naiveErr.Add(abs(v - truth))
		}
	}
	improvement := 1 - bayesErr.Mean()/naiveErr.Mean()
	text := fmt.Sprintf(
		"mean |error| vs drifting ground truth over %d segments x 1 day:\n"+
			"  naive latest-window:            %.2f km/h\n"+
			"  Eq.4 fusion + process noise:    %.2f km/h\n"+
			"  Eq.4 fusion without forgetting: %.2f km/h (converges to the day mean)\n"+
			"  improvement over naive: %.0f%%\n",
		len(segs), naiveErr.Mean(), bayesErr.Mean(), staticErr.Mean(), 100*improvement)
	return Report{
		Name: "§III-D ablation — Bayesian fusion vs naive estimator",
		Text: text,
		Metrics: map[string]float64{
			"bayes_err":   bayesErr.Mean(),
			"naive_err":   naiveErr.Mean(),
			"static_err":  staticErr.Mean(),
			"improvement": improvement,
		},
	}, nil
}

// AblationGPSBaseline compares stop identification by the paper's
// cellular matching against a GPS probe baseline (nearest stop to a
// noisy on-bus fix), quantifying why the system avoids GPS despite its
// apparent simplicity.
func AblationGPSBaseline(l *Lab, perStop int, seed uint64) (Report, error) {
	if perStop <= 0 {
		return Report{}, fmt.Errorf("eval: non-positive trial count")
	}
	rng := stats.NewRNG(seed).Fork("ablation-gps")
	rec, err := gps.NewReceiver(gps.OnBusDowntown, 2, rng.Fork("gps"))
	if err != nil {
		return Report{}, err
	}
	tdb := l.World.Transit
	stops := tdb.Stops()
	positions := make([]geoXY, len(stops))
	for i, st := range stops {
		positions[i] = st.Pos
	}

	var gpsOK, cellOK, total int
	for _, st := range stops {
		p := tdb.Platform(st.Platforms[0])
		for k := 0; k < perStop; k++ {
			total++
			fix := rec.Sample(p.Pos, 0)
			idx, _ := gps.NearestStop(fix, positions)
			if idx >= 0 && stops[idx].ID == st.ID {
				gpsOK++
			}
			fp := l.World.Cells.ScanFingerprint(p.Pos, cellular.Condition{OnBus: true, Weather: rng.Range(-1, 1)}, rng)
			if m, ok := l.FPDB.Match(fp); ok && m.Stop == st.ID {
				cellOK++
			}
		}
	}
	gpsAcc := float64(gpsOK) / float64(total)
	cellAcc := float64(cellOK) / float64(total)
	htc := phone.HTCSensation.MeanMW[phone.SettingGPSMicGoertzel] /
		phone.HTCSensation.MeanMW[phone.SettingCellularMicGoertzel]
	text := fmt.Sprintf(
		"stop identification from a single on-bus observation (%d trials):\n"+
			"  GPS nearest-stop baseline: %.1f%%\n  cellular fingerprinting:   %.1f%%\n"+
			"GPS also draws %.1fx the app's power (Table III)\n",
		total, 100*gpsAcc, 100*cellAcc, htc)
	return Report{
		Name: "Baseline — GPS probe vs cellular fingerprinting",
		Text: text,
		Metrics: map[string]float64{
			"gps_acc":  gpsAcc,
			"cell_acc": cellAcc,
		},
	}, nil
}

// geoXY aliases geo.XY for brevity in this file.
type geoXY = geo.XY

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
