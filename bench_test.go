package busprobe

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (go test -bench=. -benchmem). Each benchmark runs the
// corresponding experiment and reports its headline metrics as custom
// benchmark units, so the benchmark output is the numeric record
// behind EXPERIMENTS.md. Campaign-backed figures share one full-scale
// deployment built lazily on first use. These are paper evidence;
// serving performance is measured by the bench/ module instead
// (go run -C bench . --workload W).

import (
	"context"
	"sync"
	"testing"

	"busprobe/internal/eval"
	"busprobe/internal/sim"
)

// benchLab lazily builds the full paper-scale deployment.
var (
	benchLabOnce sync.Once
	benchLabVal  *eval.Lab
	benchLabErr  error
)

func benchLab(b *testing.B) *eval.Lab {
	b.Helper()
	benchLabOnce.Do(func() { benchLabVal, benchLabErr = eval.DefaultLab() })
	if benchLabErr != nil {
		b.Fatal(benchLabErr)
	}
	return benchLabVal
}

// benchCampaign lazily runs the intensive campaign feeding the traffic
// figures (two simulated days, 22 participants).
var (
	benchRunOnce sync.Once
	benchRunVal  *eval.CampaignRun
	benchRunErr  error
)

func benchCampaign(b *testing.B) *eval.CampaignRun {
	b.Helper()
	l := benchLab(b)
	benchRunOnce.Do(func() {
		cfg := sim.DefaultCampaignConfig()
		cfg.Days = 2
		cfg.Participants = 22
		cfg.IntensiveFromDay = 0
		cfg.IntensiveTripsPerDay = 6
		benchRunVal, benchRunErr = eval.RunCampaign(context.Background(), l, cfg, 300)
	})
	if benchRunErr != nil {
		b.Fatal(benchRunErr)
	}
	return benchRunVal
}

func BenchmarkFig1GPSErrorCDF(b *testing.B) {
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig1GPSError(20000, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("stationary_median"), "stationary-median-m")
	b.ReportMetric(rep.Metric("onbus_median"), "onbus-median-m")
	b.ReportMetric(rep.Metric("onbus_p90"), "onbus-p90-m")
}

func BenchmarkFig2bSelfSimilarity(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig2bSelfSimilarity(l, nil, 8, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("ge3"), "P(score>=3)")
	b.ReportMetric(rep.Metric("ge4"), "P(score>=4)")
}

func BenchmarkFig2cCrossSimilarity(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig2cCrossSimilarity(l, nil, 3, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("zero_eff"), "P(score=0)")
	b.ReportMetric(rep.Metric("lt2_eff"), "P(score<2)")
}

func BenchmarkTable1Matching(b *testing.B) {
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		rep = eval.TableIMatchingInstance()
	}
	b.ReportMetric(rep.Metric("score"), "score")
}

func BenchmarkFig5EpsilonSweep(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig5EpsilonSweep(l, "243", 12, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("acc_0.6"), "accuracy@0.6")
	b.ReportMetric(rep.Metric("acc_2.0"), "accuracy@2.0")
}

func BenchmarkTable2StopIdentification(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.TableIIStopIdentification(l, 7, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.Metric("overall_error_rate"), "error-%")
	b.ReportMetric(100*rep.Metric("worst_route_rate"), "worst-route-error-%")
}

func BenchmarkFig9TrafficMap(b *testing.B) {
	l := benchLab(b)
	run := benchCampaign(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig9TrafficMap(l, 1, run)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("morning_mean_kmh"), "morning-kmh")
	b.ReportMetric(rep.Metric("evening_mean_kmh"), "evening-kmh")
	b.ReportMetric(100*rep.Metric("coverage"), "coverage-%")
}

func BenchmarkFig10SegmentSeries(b *testing.B) {
	l := benchLab(b)
	run := benchCampaign(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig10SegmentSeries(l, run, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("corr_A"), "corr-A")
	b.ReportMetric(rep.Metric("low_speed_gap"), "congested-gap-kmh")
	b.ReportMetric(rep.Metric("high_speed_gap"), "light-gap-kmh")
}

func BenchmarkFig11SpeedDifference(b *testing.B) {
	l := benchLab(b)
	run := benchCampaign(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.Fig11SpeedDifference(l, run)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("low_median"), "low-dv-median")
	b.ReportMetric(rep.Metric("med_median"), "med-dv-median")
	b.ReportMetric(rep.Metric("high_median"), "high-dv-median")
}

func BenchmarkTable3Power(b *testing.B) {
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.TableIIIPower(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("HTC Sensation/GPS"), "htc-gps-mw")
	b.ReportMetric(rep.Metric("HTC Sensation/Cellular+Mic(Goertzel)"), "htc-app-mw")
}

func BenchmarkGoertzelVsFFT(b *testing.B) {
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.GoertzelVsFFT(5000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("speedup"), "fft/goertzel-x")
}

func BenchmarkAblationMismatchPenalty(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.AblationMismatchPenalty(l, 4, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("acc_0.3"), "accuracy@0.3")
	b.ReportMetric(rep.Metric("best_penalty"), "best-penalty")
}

func BenchmarkAblationFusion(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.AblationFusion(l, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("bayes_err"), "bayes-err-kmh")
	b.ReportMetric(rep.Metric("naive_err"), "naive-err-kmh")
}

func BenchmarkAblationGPSBaseline(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.AblationGPSBaseline(l, 4, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.Metric("gps_acc"), "gps-acc-%")
	b.ReportMetric(100*rep.Metric("cell_acc"), "cellular-acc-%")
}

func BenchmarkExtRegionInference(b *testing.B) {
	l := benchLab(b)
	run := benchCampaign(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.ExtRegionInference(l, run, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.Metric("zone_rel_err"), "zone-err-%")
	b.ReportMetric(100*rep.Metric("base_rel_err"), "baseline-err-%")
}

func BenchmarkExtArrivalPrediction(b *testing.B) {
	l := benchLab(b)
	run := benchCampaign(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.ExtArrivalPrediction(l, run, 1, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("rush_live_mae_s"), "rush-live-mae-s")
	b.ReportMetric(rep.Metric("rush_sched_mae_s"), "rush-sched-mae-s")
}

func BenchmarkExtParticipationSweep(b *testing.B) {
	l := benchLab(b)
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.ExtParticipationSweep(context.Background(), l, []int{5, 22}, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("n5_covered"), "covered@5")
	b.ReportMetric(rep.Metric("n22_covered"), "covered@22")
}

func BenchmarkBeepDetectionSweep(b *testing.B) {
	var rep eval.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = eval.BeepDetectionSweep([]float64{0.05, 0.35}, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Metric("noise0.05_recall"), "recall@0.05")
	b.ReportMetric(rep.Metric("noise0.35_recall"), "recall@0.35")
}

// BenchmarkEndToEndDay measures a full system day: city, survey,
// campaign, pipeline, estimation.
func BenchmarkEndToEndDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := DefaultOptions()
		opts.World.Seed = uint64(i + 1)
		sys, err := New(opts)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.DefaultCampaignConfig()
		cfg.Days = 1
		cfg.IntensiveFromDay = 0
		if _, err := sys.RunCampaign(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
		if len(sys.Traffic()) == 0 {
			b.Fatal("no estimates")
		}
	}
}
