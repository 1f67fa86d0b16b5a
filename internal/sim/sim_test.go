package sim

import (
	"busprobe/internal/clock"
	"context"
	"math"
	"testing"

	"busprobe/internal/geo"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

func TestClockHelpers(t *testing.T) {
	if clock.TimeOfDayS(2*clock.DayS+3600) != 3600 {
		t.Error("TimeOfDayS wrong")
	}
	if clock.HourOfDay(clock.DayS+8.5*3600) != 8.5 {
		t.Error("HourOfDay wrong")
	}
	if clock.DayIndex(2.5*clock.DayS) != 2 {
		t.Error("DayIndex wrong")
	}
	if got := clock.Stamp(clock.DayS + 8*3600 + 30*60); got != "d1 08:30" {
		t.Errorf("ClockTime = %q", got)
	}
}

func smallWorldConfig() WorldConfig {
	cfg := DefaultWorldConfig()
	cfg.Road.WidthM = 3000
	cfg.Road.HeightM = 2000
	cfg.Plan.RouteIDs = []transit.RouteID{"179", "243"}
	cfg.Plan.MinStops = 6
	cfg.Plan.MaxStops = 10
	return cfg
}

func buildSmallWorld(t *testing.T) *World {
	t.Helper()
	w, err := BuildWorld(smallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorld(t *testing.T) {
	w := buildSmallWorld(t)
	if w.Net == nil || w.Transit == nil || w.Cells == nil || w.Field == nil || w.Demand == nil {
		t.Fatal("world incomplete")
	}
	if w.Transit.NumRoutes() != 2 {
		t.Errorf("routes = %d", w.Transit.NumRoutes())
	}
}

func TestBuildWorldDeterministicViaMasterSeed(t *testing.T) {
	a := buildSmallWorld(t)
	b := buildSmallWorld(t)
	if a.Cells.NumTowers() != b.Cells.NumTowers() {
		t.Error("tower counts differ")
	}
	for i := range a.Cells.Towers() {
		if a.Cells.Towers()[i].ID != b.Cells.Towers()[i].ID {
			t.Fatal("tower IDs differ between identical builds")
		}
	}
}

func TestFieldRushHourSlowdown(t *testing.T) {
	w := buildSmallWorld(t)
	f := w.Field
	sid := road.SegmentID(0)
	vRush := f.CarKmh(sid, 8.5*3600)
	vOffPeak := f.CarKmh(sid, 12.5*3600)
	if vRush >= vOffPeak {
		t.Errorf("rush %v not slower than off-peak %v", vRush, vOffPeak)
	}
	free := w.Net.Segment(sid).FreeKmh
	if vOffPeak > free*1.05+1e-9 {
		t.Errorf("off-peak %v exceeds free flow %v", vOffPeak, free)
	}
	if vRush < free*DefaultFieldConfig().MinFactor-1e-9 {
		t.Errorf("rush %v below floor", vRush)
	}
}

func TestFieldBusAndTaxiRelations(t *testing.T) {
	w := buildSmallWorld(t)
	f := w.Field
	for _, tt := range []float64{7 * 3600, 8.5 * 3600, 13 * 3600, 18 * 3600} {
		for sid := 0; sid < 10; sid++ {
			id := road.SegmentID(sid)
			car := f.CarKmh(id, tt)
			bus := f.BusKmh(id, tt)
			taxi := f.TaxiKmh(id, tt)
			if bus > car {
				t.Fatalf("bus %v faster than car %v", bus, car)
			}
			if bus > f.cfg.BusCapKmh+1e-9 {
				t.Fatalf("bus %v above cap", bus)
			}
			if taxi < car-1e-9 {
				t.Fatalf("taxi %v slower than car %v", taxi, car)
			}
		}
	}
	// Taxi advantage should be larger in light traffic than at rush.
	id := road.SegmentID(3)
	gapLight := f.TaxiKmh(id, 13*3600) - f.CarKmh(id, 13*3600)
	gapRush := f.TaxiKmh(id, 8.5*3600) - f.CarKmh(id, 8.5*3600)
	if gapLight <= gapRush {
		t.Errorf("taxi gap light %v <= rush %v", gapLight, gapRush)
	}
}

func TestFieldConfigValidation(t *testing.T) {
	w := buildSmallWorld(t)
	bad := DefaultFieldConfig()
	bad.MinFactor = 0
	if _, err := NewField(w.Net, bad); err == nil {
		t.Error("want error for zero MinFactor")
	}
	bad = DefaultFieldConfig()
	bad.BusCapKmh = 0
	if _, err := NewField(w.Net, bad); err == nil {
		t.Error("want error for zero bus cap")
	}
}

func TestDemandDiurnalShape(t *testing.T) {
	w := buildSmallWorld(t)
	d := w.Demand
	stop := w.Transit.Stops()[0].ID
	rush := d.MeanBeeps(stop, 8.5*3600)
	lull := d.MeanBeeps(stop, 13*3600)
	if rush <= lull {
		t.Errorf("rush demand %v not above midday %v", rush, lull)
	}
	rng := stats.NewRNG(5)
	var acc stats.Accumulator
	for i := 0; i < 3000; i++ {
		acc.Add(float64(d.BeepsAtVisit(stop, 13*3600, rng)))
	}
	if math.Abs(acc.Mean()-lull) > 0.15*lull+0.1 {
		t.Errorf("empirical mean %v vs model %v", acc.Mean(), lull)
	}
}

func TestDemandValidation(t *testing.T) {
	w := buildSmallWorld(t)
	if _, err := NewDemand(w.Transit, DemandConfig{BaseBeepsPerVisit: -1, RushMultiplier: 2}); err == nil {
		t.Error("want error for negative base")
	}
	if _, err := NewDemand(w.Transit, DemandConfig{BaseBeepsPerVisit: 1, RushMultiplier: 0.5}); err == nil {
		t.Error("want error for multiplier < 1")
	}
}

func TestBusTraversesRoute(t *testing.T) {
	w := buildSmallWorld(t)
	rt := w.Transit.Routes()[0]
	bus, err := NewBus(1, rt, w.Net)
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	now := 8 * 3600.0
	for !bus.Done() {
		if bus.PendingArrival() {
			visits++
			if bus.StopIdx() != visits-1 {
				t.Fatalf("visit %d at stop index %d", visits, bus.StopIdx())
			}
			// Alternate dwell and skip.
			if visits%2 == 0 {
				if err := bus.Skip(); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := bus.Dwell(now, 10); err != nil {
					t.Fatal(err)
				}
			}
		}
		arrived, err := bus.Advance(now, 1, w.Field)
		if err != nil {
			t.Fatal(err)
		}
		_ = arrived
		now++
		if now > 8*3600+4*3600 {
			t.Fatal("bus did not finish within 4 simulated hours")
		}
	}
	if visits != rt.NumStops() {
		t.Errorf("visited %d stops, route has %d", visits, rt.NumStops())
	}
}

func TestBusTravelTimeRespondsToCongestion(t *testing.T) {
	w := buildSmallWorld(t)
	rt := w.Transit.Routes()[0]
	runAll := func(start float64) float64 {
		bus, err := NewBus(1, rt, w.Net)
		if err != nil {
			t.Fatal(err)
		}
		now := start
		for !bus.Done() {
			if bus.PendingArrival() {
				if err := bus.Skip(); err != nil { // pure driving time
					t.Fatal(err)
				}
			}
			if _, err := bus.Advance(now, 1, w.Field); err != nil {
				t.Fatal(err)
			}
			now++
		}
		return now - start
	}
	rush := runAll(8.2 * 3600)
	offPeak := runAll(13 * 3600)
	if rush <= offPeak {
		t.Errorf("rush run %v s not slower than off-peak %v s", rush, offPeak)
	}
}

func TestBusAPIErrors(t *testing.T) {
	w := buildSmallWorld(t)
	rt := w.Transit.Routes()[0]
	bus, err := NewBus(1, rt, w.Net)
	if err != nil {
		t.Fatal(err)
	}
	// Advancing with unresolved arrival is a programming error.
	if _, err := bus.Advance(0, 1, w.Field); err == nil {
		t.Error("want error for unresolved arrival")
	}
	if err := bus.Dwell(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := bus.Dwell(0, 10); err == nil {
		t.Error("want error for double dwell")
	}
	if err := bus.Skip(); err == nil {
		t.Error("want error for skip while dwelling")
	}
	if _, err := NewBus(1, nil, w.Net); err == nil {
		t.Error("want error for nil route")
	}
}

func TestOfficialFeed(t *testing.T) {
	w := buildSmallWorld(t)
	feed, err := NewOfficialFeed(w.Field, 300, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sid := road.SegmentID(2)
	// Deterministic within a window.
	a := feed.SpeedKmh(sid, 910)
	b := feed.SpeedKmh(sid, 1190) // same 5-min window [900, 1200)
	if a != b {
		t.Error("same window should give same value")
	}
	// Tracks the diurnal pattern.
	rush := feed.SpeedKmh(sid, 8.5*3600)
	off := feed.SpeedKmh(sid, 13*3600)
	if rush >= off {
		t.Errorf("official rush %v not below off-peak %v", rush, off)
	}
	if _, err := NewOfficialFeed(nil, 300, 2, 1); err == nil {
		t.Error("want error for nil field")
	}
	if _, err := NewOfficialFeed(w.Field, 0, 2, 1); err == nil {
		t.Error("want error for zero window")
	}
}

// tripSink collects campaign uploads.
type tripSink struct {
	trips []probe.Trip
}

func (s *tripSink) Upload(_ context.Context, tr probe.Trip) error {
	s.trips = append(s.trips, tr)
	return nil
}

func TestCampaignEndToEnd(t *testing.T) {
	w := buildSmallWorld(t)
	cfg := DefaultCampaignConfig()
	cfg.Days = 1
	cfg.Participants = 6
	cfg.SparseTripsPerDay = 4
	cfg.IntensiveFromDay = 99
	sink := &tripSink{}
	var visits, skipped int
	camp, err := NewCampaign(w, cfg, sink, func(v StopVisit) {
		visits++
		if v.Skipped {
			skipped++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.BusRuns == 0 || st.Visits == 0 || st.Beeps == 0 {
		t.Fatalf("campaign produced nothing: %+v", st)
	}
	if visits != st.Visits {
		t.Errorf("observer saw %d visits, stats %d", visits, st.Visits)
	}
	if skipped == 0 {
		t.Error("expected some skipped stops (missing-stop path)")
	}
	if len(sink.trips) == 0 {
		t.Fatal("no trips uploaded")
	}
	for _, tr := range sink.trips {
		if err := tr.Validate(); err != nil {
			t.Fatalf("uploaded trip invalid: %v", err)
		}
	}
	if st.ParticipantTrips == 0 {
		t.Error("no participant rides completed")
	}
	// Most riders' trips should span multiple stop visits.
	multi := 0
	for _, tr := range sink.trips {
		if len(tr.Samples) >= 4 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no multi-stop trips recorded")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	run := func() (CampaignStats, int) {
		w := buildSmallWorld(t)
		cfg := DefaultCampaignConfig()
		cfg.Days = 1
		cfg.Participants = 4
		cfg.SparseTripsPerDay = 3
		cfg.IntensiveFromDay = 99
		sink := &tripSink{}
		camp, err := NewCampaign(w, cfg, sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := camp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st, len(sink.trips)
	}
	s1, n1 := run()
	s2, n2 := run()
	if s1 != s2 || n1 != n2 {
		t.Errorf("campaign not deterministic: %+v/%d vs %+v/%d", s1, n1, s2, n2)
	}
}

func TestCampaignValidation(t *testing.T) {
	w := buildSmallWorld(t)
	sink := &tripSink{}
	bad := DefaultCampaignConfig()
	bad.Days = 0
	if _, err := NewCampaign(w, bad, sink, nil); err == nil {
		t.Error("want error for zero days")
	}
	if _, err := NewCampaign(nil, DefaultCampaignConfig(), sink, nil); err == nil {
		t.Error("want error for nil world")
	}
	if _, err := NewCampaign(w, DefaultCampaignConfig(), nil, nil); err == nil {
		t.Error("want error for nil uploader")
	}
}

func TestIntensivePhaseProducesMoreTrips(t *testing.T) {
	w := buildSmallWorld(t)
	run := func(intensiveFrom int) int {
		cfg := DefaultCampaignConfig()
		cfg.Days = 2
		cfg.Participants = 8
		cfg.SparseTripsPerDay = 1
		cfg.IntensiveTripsPerDay = 6
		cfg.IntensiveFromDay = intensiveFrom
		sink := &tripSink{}
		camp, err := NewCampaign(w, cfg, sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := camp.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return len(sink.trips)
	}
	sparseOnly := run(99)
	withIntensive := run(0)
	if withIntensive <= sparseOnly {
		t.Errorf("intensive %d not above sparse %d", withIntensive, sparseOnly)
	}
}

func TestTrainDecoysFiltered(t *testing.T) {
	// Train-station decoys must never create trips or samples: the same
	// campaign with and without decoys uploads identical trip counts.
	run := func(decoys float64) (CampaignStats, int) {
		w := buildSmallWorld(t)
		cfg := DefaultCampaignConfig()
		cfg.Days = 1
		cfg.Participants = 6
		cfg.SparseTripsPerDay = 3
		cfg.IntensiveFromDay = 99
		cfg.TrainDecoysPerDay = decoys
		sink := &tripSink{}
		camp, err := NewCampaign(w, cfg, sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := camp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st, len(sink.trips)
	}
	stClean, nClean := run(0)
	stDecoy, nDecoy := run(5)
	if stClean.TrainDecoys != 0 {
		t.Errorf("clean run saw %d decoys", stClean.TrainDecoys)
	}
	if stDecoy.TrainDecoys == 0 {
		t.Fatal("no decoys delivered")
	}
	if nDecoy != nClean {
		t.Errorf("decoys changed trip count: %d vs %d", nDecoy, nClean)
	}
}

func TestCampaignEnergyAccounting(t *testing.T) {
	w := buildSmallWorld(t)
	cfg := DefaultCampaignConfig()
	cfg.Days = 1
	cfg.Participants = 6
	cfg.SparseTripsPerDay = 4
	cfg.IntensiveFromDay = 99
	sink := &tripSink{}
	camp, err := NewCampaign(w, cfg, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ParticipantTrips == 0 {
		t.Skip("no rides this seed")
	}
	if st.RidingSeconds <= 0 {
		t.Fatal("no riding time recorded")
	}
	if st.AppEnergyJ <= 0 {
		t.Fatal("no energy recorded")
	}
	// Energy per riding second must sit between the two device
	// profiles' app draws (82 and 96 mW -> 0.082..0.096 J/s).
	perS := st.AppEnergyJ / st.RidingSeconds
	if perS < 0.080 || perS > 0.098 {
		t.Errorf("energy rate %v J/s outside profile range", perS)
	}
}

func TestLondonPresetBuilds(t *testing.T) {
	cfg := LondonWorldConfig()
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Transit.NumRoutes() != 10 {
		t.Errorf("routes = %d, want 10", w.Transit.NumRoutes())
	}
	if got := w.Net.BBox().Width(); got < 7800 || got > 8300 {
		t.Errorf("extent = %v", got)
	}
	// London buses are slower than Singapore's.
	if w.Field.cfg.BusCapKmh >= DefaultFieldConfig().BusCapKmh {
		t.Error("London bus cap should be lower")
	}
	// The denser plan yields more stops than the default city.
	if w.Transit.NumStops() < 120 {
		t.Errorf("stops = %d", w.Transit.NumStops())
	}
}

func TestBusPosWhileDriving(t *testing.T) {
	w := buildSmallWorld(t)
	rt := w.Transit.Routes()[0]
	bus, err := NewBus(1, rt, w.Net)
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Dwell(0, 5); err != nil {
		t.Fatal(err)
	}
	start := bus.Pos()
	now := 0.0
	// Advance into the driving phase and check the position leaves the
	// stop and stays on the leg's segment geometry.
	for i := 0; i < 30; i++ {
		if _, err := bus.Advance(now, 1, w.Field); err != nil {
			t.Fatal(err)
		}
		now++
	}
	p := bus.Pos()
	if p == start {
		t.Fatal("bus did not move")
	}
	leg := rt.Leg(w.Net, 0)
	onLeg := false
	for _, sid := range leg.Segments {
		shape := w.Net.Segment(sid).Shape
		for s := 0.0; s <= shape.Length(); s += 10 {
			if distXY(shape.At(s), p) < 15 {
				onLeg = true
			}
		}
	}
	if !onLeg {
		t.Errorf("driving position %v off the leg geometry", p)
	}
}

func distXY(a, b geo.XY) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

func TestNegativeTimeOfDay(t *testing.T) {
	if got := clock.TimeOfDayS(-3600); got != clock.DayS-3600 {
		t.Errorf("clock.TimeOfDayS(-3600) = %v", got)
	}
}

func TestCampaignConfigValidation(t *testing.T) {
	base := DefaultCampaignConfig()
	cases := []func(*CampaignConfig){
		func(c *CampaignConfig) { c.Days = 0 },
		func(c *CampaignConfig) { c.Participants = 0 },
		func(c *CampaignConfig) { c.TickS = 0 },
		func(c *CampaignConfig) { c.SparseTripsPerDay = -1 },
		func(c *CampaignConfig) { c.IntensiveTripsPerDay = -1 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFieldValidationMore(t *testing.T) {
	w := buildSmallWorld(t)
	bad := DefaultFieldConfig()
	bad.PeakWidthH = 0
	if _, err := NewField(w.Net, bad); err == nil {
		t.Error("want error for zero peak width")
	}
	bad = DefaultFieldConfig()
	bad.FreeFlowRatio = 0.05 // below MinFactor
	if _, err := NewField(w.Net, bad); err == nil {
		t.Error("want error for FreeFlowRatio below MinFactor")
	}
	bad = DefaultFieldConfig()
	bad.BusFactor = 0
	if _, err := NewField(w.Net, bad); err == nil {
		t.Error("want error for zero bus factor")
	}
}

func TestBuildWorldPropagatesSubErrors(t *testing.T) {
	cfg := smallWorldConfig()
	cfg.Seed = 0 // keep sub-seeds as given
	cfg.Road.SpacingM = 0
	if _, err := BuildWorld(cfg); err == nil {
		t.Error("want error for broken road config")
	}
	cfg = smallWorldConfig()
	cfg.Seed = 0
	cfg.Plan.RouteIDs = nil
	if _, err := BuildWorld(cfg); err == nil {
		t.Error("want error for empty plan")
	}
	cfg = smallWorldConfig()
	cfg.Seed = 0
	cfg.Cells.SpacingM = 0
	if _, err := BuildWorld(cfg); err == nil {
		t.Error("want error for broken cells config")
	}
	cfg = smallWorldConfig()
	cfg.Seed = 0
	cfg.Field.MinFactor = 0
	if _, err := BuildWorld(cfg); err == nil {
		t.Error("want error for broken field config")
	}
	cfg = smallWorldConfig()
	cfg.Seed = 0
	cfg.Demand.BaseBeepsPerVisit = -1
	if _, err := BuildWorld(cfg); err == nil {
		t.Error("want error for broken demand config")
	}
}
