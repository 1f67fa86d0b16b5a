package region

import (
	"math"
	"testing"

	"busprobe/internal/core/traffic"
	"busprobe/internal/geo"
	"busprobe/internal/road"
)

func testNet(t *testing.T) *road.Network {
	t.Helper()
	cfg := road.DefaultGridConfig()
	cfg.WidthM = 4000
	cfg.HeightM = 3000
	cfg.JitterM = 0
	net, err := road.GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// estimateAtRatio fabricates an estimate at a fraction of design speed.
func estimateAtRatio(net *road.Network, sid road.SegmentID, ratio float64) traffic.Estimate {
	return traffic.Estimate{SpeedKmh: net.Segment(sid).FreeKmh * ratio, Var: 4, Reports: 3}
}

func TestInferValidation(t *testing.T) {
	net := testNet(t)
	if _, err := Infer(nil, map[road.SegmentID]traffic.Estimate{1: {}}, DefaultConfig()); err == nil {
		t.Error("want error for nil network")
	}
	if _, err := Infer(net, nil, DefaultConfig()); err == nil {
		t.Error("want error for no estimates")
	}
	bad := DefaultConfig()
	bad.ZoneM = 0
	if _, err := Infer(net, map[road.SegmentID]traffic.Estimate{1: estimateAtRatio(net, 1, 0.5)}, bad); err == nil {
		t.Error("want error for zero zone size")
	}
	bad = DefaultConfig()
	bad.NeighborRadius = 0
	if _, err := Infer(net, map[road.SegmentID]traffic.Estimate{1: estimateAtRatio(net, 1, 0.5)}, bad); err == nil {
		t.Error("want error for zero radius")
	}
}

func TestOverallIndexIsWeightedMean(t *testing.T) {
	net := testNet(t)
	est := map[road.SegmentID]traffic.Estimate{
		0: estimateAtRatio(net, 0, 0.4),
		2: estimateAtRatio(net, 2, 0.8),
	}
	m, err := Infer(net, est, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Equal-length segments: plain mean.
	if got := m.OverallIndex(); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("overall = %v, want 0.6", got)
	}
}

func TestCoveredZonePredictsItsOwnIndex(t *testing.T) {
	net := testNet(t)
	// Cover several segments near the origin at ratio 0.5.
	est := make(map[road.SegmentID]traffic.Estimate)
	for sid := 0; sid < 8; sid += 2 {
		est[road.SegmentID(sid)] = estimateAtRatio(net, road.SegmentID(sid), 0.5)
	}
	m, err := Infer(net, est, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.CoveredZones() == 0 {
		t.Fatal("no covered zones")
	}
	// A covered segment's prediction should be ~0.5 x design.
	seg := net.Segment(0)
	want := seg.FreeKmh * 0.5
	if got := m.PredictKmh(0); math.Abs(got-want) > 0.05*want {
		t.Errorf("PredictKmh(0) = %v, want ~%v", got, want)
	}
}

func TestUncoveredZoneBorrowsFromNeighbors(t *testing.T) {
	net := testNet(t)
	// Congest only the west side; ask about an uncovered point nearby.
	est := make(map[road.SegmentID]traffic.Estimate)
	for _, s := range net.Segments() {
		mid := s.Shape.At(s.LengthM() / 2)
		if mid.X < 1000 {
			est[s.ID] = estimateAtRatio(net, s.ID, 0.3)
		}
	}
	if len(est) == 0 {
		t.Fatal("no west segments")
	}
	m, err := Infer(net, est, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A point just east of the covered area borrows the ~0.3 index.
	idx := m.ZoneIndex(geo.XY{X: 1500, Y: 1500})
	if math.Abs(idx-0.3) > 0.1 {
		t.Errorf("borrowed index = %v, want ~0.3", idx)
	}
	// A point far beyond the radius falls back to the overall index.
	far := m.ZoneIndex(geo.XY{X: 50000, Y: 50000})
	if math.Abs(far-m.OverallIndex()) > 1e-9 {
		t.Errorf("far index = %v, want overall %v", far, m.OverallIndex())
	}
}

func TestSpatialGradientRecovered(t *testing.T) {
	// Cover half the network with a west-congested/east-free pattern
	// and check predictions on the *uncovered* half recover the
	// gradient.
	net := testNet(t)
	ratioOf := func(mid geo.XY) float64 {
		if mid.X < 2000 {
			return 0.3
		}
		return 0.7
	}
	est := make(map[road.SegmentID]traffic.Estimate)
	for _, s := range net.Segments() {
		if s.ID%2 == 0 { // cover every other segment
			mid := s.Shape.At(s.LengthM() / 2)
			est[s.ID] = estimateAtRatio(net, s.ID, ratioOf(mid))
		}
	}
	m, err := Infer(net, est, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var errSum float64
	n := 0
	for _, s := range net.Segments() {
		if s.ID%2 == 0 {
			continue // only evaluate uncovered segments
		}
		mid := s.Shape.At(s.LengthM() / 2)
		truth := s.FreeKmh * ratioOf(mid)
		errSum += math.Abs(m.PredictKmh(s.ID)-truth) / truth
		n++
	}
	if n == 0 {
		t.Fatal("no uncovered segments evaluated")
	}
	if rel := errSum / float64(n); rel > 0.2 {
		t.Errorf("mean relative prediction error %v on uncovered half", rel)
	}
}

func TestThinCoverageFallback(t *testing.T) {
	net := testNet(t)
	// One short covered segment below MinCoveredLengthM still yields a
	// usable model (single-zone fallback).
	cfg := DefaultConfig()
	cfg.MinCoveredLengthM = 1e9
	est := map[road.SegmentID]traffic.Estimate{3: estimateAtRatio(net, 3, 0.5)}
	m, err := Infer(net, est, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.CoveredZones() == 0 {
		t.Error("fallback should keep at least one zone")
	}
	if v := m.PredictKmh(100); v <= 0 {
		t.Errorf("prediction %v", v)
	}
}

func TestInferIsAPureFunctionOfTheMap(t *testing.T) {
	// Float sums are order-sensitive and Go randomizes map iteration, so
	// an Infer that accumulates in map order answers the same map with
	// indices that differ in the last bit from call to call — enough to
	// break byte-identical /v1/region across two deployments holding the
	// same snapshot.
	net := testNet(t)
	est := make(map[road.SegmentID]traffic.Estimate)
	for i := 0; i < net.NumSegments(); i++ {
		sid := road.SegmentID(i)
		est[sid] = estimateAtRatio(net, sid, 0.31+0.0137*float64(i%41))
	}
	first, err := Infer(net, est, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		m, err := Infer(net, est, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if m.OverallIndex() != first.OverallIndex() {
			t.Fatalf("trial %d: overall index %v, first call gave %v", trial, m.OverallIndex(), first.OverallIndex())
		}
		for key, idx := range first.zones {
			if m.zones[key] != idx {
				t.Fatalf("trial %d: zone %v index %v, first call gave %v", trial, key, m.zones[key], idx)
			}
		}
	}
}
