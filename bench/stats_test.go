package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 10; i >= 1; i-- { // unsorted on purpose
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 5 * time.Millisecond}, {90, 9 * time.Millisecond}, {99, 10 * time.Millisecond}, {100, 10 * time.Millisecond}, {1, time.Millisecond}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..10ms, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if s[0] != 10*time.Millisecond {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestRoundRatesScaleBySlownessAndMedianIgnoresAStall(t *testing.T) {
	// perRound is the ops a round holds at 100 ops/s.
	perRound := int(100 * roundLen.Seconds())
	// Five full rounds at 100 ops/s on a reference-speed machine, except
	// round 2, which stalls to a tenth; a cut-short last round must not
	// count.
	var rounds []round
	total := 0
	for i := 0; i < 5; i++ {
		ops := perRound
		if i == 2 {
			ops = perRound / 10
		}
		total += ops
		rounds = append(rounds, round{ops: ops, dur: roundLen, slow: 1})
	}
	rounds = append(rounds, round{ops: 1, dur: roundLen / 4, slow: 1})
	if got := median(roundRates(rounds, 1, true)); !near(got, 100) {
		t.Errorf("median round rate = %v, want 100", got)
	}
	if got := median(roundRates(rounds, 64, true)); !near(got, 6400) {
		t.Errorf("median round rate of 64-trip ops = %v, want 6400", got)
	}
	log := &opLog{rounds: rounds, raw: make([]time.Duration, total+1)}
	if mean := meanRate(len(log.raw), 1, log.loadTime()); mean >= 90 {
		t.Errorf("mean rate %v should show the stall the round median hides", mean)
	}
	// A phase too short for a full round is measured by what it has.
	if got := roundRates([]round{{ops: perRound / 5, dur: roundLen / 5, slow: 1}}, 1, true); len(got) != 1 || !near(got[0], 100) {
		t.Errorf("rates of a fifth-of-a-round phase = %v, want [100]", got)
	}
	// A machine running 25 % slow completes 80 ops where the reference
	// completes 100: scaled, the round reads 100 again; raw, it reads 80.
	slowed := []round{{ops: perRound * 4 / 5, dur: roundLen, slow: 1.25}}
	if got := roundRates(slowed, 1, true)[0]; !near(got, 100) {
		t.Errorf("scaled rate on a slow machine = %v, want 100", got)
	}
	if got := roundRates(slowed, 1, false)[0]; !near(got, 80) {
		t.Errorf("raw rate on a slow machine = %v, want 80", got)
	}
}

func TestMeterScalesLatenciesAndWallTimeByTheRoundsBursts(t *testing.T) {
	log := &opLog{}
	m := &meter{log: log, slow0: 1.0, start: clk.Now()}
	// Close a round by hand with a scripted closing burst of 1.5: the
	// round's slowness is the mean of its two bursts, 1.25.
	m.pending = []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	m.closeRound(time.Second, 1.5)
	if len(log.rounds) != 1 || !near(log.rounds[0].slow, 1.25) || log.rounds[0].ops != 2 {
		t.Fatalf("rounds = %+v, want one round of 2 ops at slowness 1.25", log.rounds)
	}
	if log.raw[1] != 20*time.Millisecond || log.lat[1] != 16*time.Millisecond {
		t.Errorf("op raw %v scaled %v, want 20ms raw and 16ms at reference speed", log.raw[1], log.lat[1])
	}
	if m.scaled != 800*time.Millisecond {
		t.Errorf("scaled wall time = %v, want 800ms", m.scaled)
	}
	// The closing burst opens the next round; an empty round still
	// counts its wall time (set-up between uploads) but logs no round.
	m.closeRound(time.Second, 0.5)
	if len(log.rounds) != 1 || m.scaled != 1800*time.Millisecond {
		t.Errorf("after an empty round at slowness 1.0: rounds %d, scaled %v; want 1 and 1.8s", len(log.rounds), m.scaled)
	}
}

func TestQuartileSpreadMatchesPythonExclusiveQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if got, want := quartileSpread([]float64{4, 1, 2}), (4.0-1.0)/2.0; !near(got, want) {
		t.Errorf("spread(1,2,4) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestDigestSelfTimeIsTotalMinusDeclaredChildren(t *testing.T) {
	at := func(us int64) int64 { return us * 1000 }
	spans := []span{
		// Trip a: client 1000 µs ⊃ handler 700 ⊃ backend 500 ⊃ {append 100, match 250}.
		{Trace: "a", Name: layerUpload, StartNs: at(0), EndNs: at(1000)},
		{Trace: "a", Name: layerHTTPUpload, Parent: layerUpload, StartNs: at(100), EndNs: at(800)},
		{Trace: "a", Name: layerProcessTrip, Parent: layerHTTPUpload, StartNs: at(200), EndNs: at(700)},
		{Trace: "a", Name: layerAppend, Parent: layerProcessTrip, StartNs: at(210), EndNs: at(310)},
		{Trace: "a", Name: "stage.match", Parent: layerProcessTrip, StartNs: at(320), EndNs: at(570)},
		// Trip b: client 600 ⊃ handler 400 ⊃ backend 300 ⊃ {append 50, match 150}.
		{Trace: "b", Name: layerUpload, StartNs: at(2000), EndNs: at(2600)},
		{Trace: "b", Name: layerHTTPUpload, Parent: layerUpload, StartNs: at(2100), EndNs: at(2500)},
		{Trace: "b", Name: layerProcessTrip, Parent: layerHTTPUpload, StartNs: at(2150), EndNs: at(2450)},
		{Trace: "b", Name: layerAppend, Parent: layerProcessTrip, StartNs: at(2160), EndNs: at(2210)},
		{Trace: "b", Name: "stage.match", Parent: layerProcessTrip, StartNs: at(2220), EndNs: at(2370)},
	}
	lt := digest(spans)
	for _, tc := range []struct {
		name       string
		mean, self float64
	}{
		{layerUpload, 800, 250},      // (1000+600)/2; wire = (300+200)/2
		{layerHTTPUpload, 550, 150},  // codec = (200+100)/2
		{layerProcessTrip, 400, 125}, // admit+fold = (150+100)/2
		{layerAppend, 75, 75},        // a leaf's self time is its time
		{"stage.match", 200, 200},
	} {
		if got := lt.meanUs(tc.name); !near(got, tc.mean) {
			t.Errorf("%s mean = %v µs, want %v", tc.name, got, tc.mean)
		}
		if got := lt.selfUs(tc.name); !near(got, tc.self) {
			t.Errorf("%s self = %v µs, want %v", tc.name, got, tc.self)
		}
	}
	// Self times of the whole tree add back up to the root.
	var sum time.Duration
	for _, d := range lt.self {
		sum += d
	}
	if sum != lt.total[layerUpload] {
		t.Errorf("Σ self = %v, want the root total %v", sum, lt.total[layerUpload])
	}
	if got := lt.meanUs("no.such.layer"); got != 0 {
		t.Errorf("unknown layer mean = %v, want 0", got)
	}
}
