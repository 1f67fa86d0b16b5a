package cellular

import (
	"math"
	"testing"

	"busprobe/internal/geo"
	"busprobe/internal/stats"
)

func testRegion() geo.BBox {
	return geo.BBox{MinX: 0, MinY: 0, MaxX: 4000, MaxY: 3000}
}

func testDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := NewDeployment(testRegion(), DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeploymentBasics(t *testing.T) {
	d := testDeployment(t)
	if d.NumTowers() < 20 {
		t.Fatalf("only %d towers", d.NumTowers())
	}
	seen := make(map[CellID]bool)
	for _, tw := range d.Towers() {
		if seen[tw.ID] {
			t.Fatalf("duplicate cell ID %d", tw.ID)
		}
		seen[tw.ID] = true
	}
}

func TestDeploymentErrors(t *testing.T) {
	if _, err := NewDeployment(testRegion(), DeployConfig{SpacingM: 0, Model: DefaultModel()}); err == nil {
		t.Error("want error for zero spacing")
	}
	cfg := DefaultDeployConfig()
	cfg.Model.MaxVisible = 0
	if _, err := NewDeployment(testRegion(), cfg); err == nil {
		t.Error("want error for zero MaxVisible")
	}
}

func TestScanVisibleCount(t *testing.T) {
	d := testDeployment(t)
	rng := stats.NewRNG(7)
	var acc stats.Accumulator
	for i := 0; i < 300; i++ {
		pos := geo.XY{X: rng.Range(500, 3500), Y: rng.Range(500, 2500)}
		rs := d.Scan(pos, Condition{}, rng)
		acc.Add(float64(len(rs)))
		if len(rs) > d.model.MaxVisible {
			t.Fatalf("scan returned %d towers, cap %d", len(rs), d.model.MaxVisible)
		}
	}
	// The paper reports typically 4-7 visible towers.
	if m := acc.Mean(); m < 3.5 || m > 7 {
		t.Errorf("mean visible towers = %v, want ~4-7", m)
	}
}

func TestScanSortedByRSS(t *testing.T) {
	d := testDeployment(t)
	rng := stats.NewRNG(8)
	for i := 0; i < 50; i++ {
		pos := geo.XY{X: rng.Range(0, 4000), Y: rng.Range(0, 3000)}
		rs := d.Scan(pos, Condition{}, rng)
		for j := 1; j < len(rs); j++ {
			if rs[j].RSS > rs[j-1].RSS {
				t.Fatalf("scan not sorted at %d", j)
			}
		}
		for j, r := range rs {
			if r.RSS < d.model.SensitivityDBm {
				t.Fatalf("reading %d below sensitivity: %v", j, r.RSS)
			}
		}
	}
}

func TestRankStabilityAtPlace(t *testing.T) {
	// Averaged over many places, the top-ranked tower should be stable
	// across repeated scans under varying conditions (Fig. 2(b)
	// premise). Individual places near the midpoint of two towers may
	// flip; the ensemble must not.
	d := testDeployment(t)
	rng := stats.NewRNG(9)
	matches, trials := 0, 0
	for p := 0; p < 40; p++ {
		pos := geo.XY{X: rng.Range(500, 3500), Y: rng.Range(500, 2500)}
		ref := d.ScanFingerprint(pos, Condition{}, rng)
		if len(ref) < 3 {
			continue
		}
		for i := 0; i < 20; i++ {
			cond := Condition{OnBus: i%2 == 0, Weather: rng.Range(-1, 1)}
			fp := d.ScanFingerprint(pos, cond, rng)
			trials++
			if len(fp) > 0 && fp[0] == ref[0] {
				matches++
			}
		}
	}
	if trials == 0 {
		t.Fatal("no usable probe points")
	}
	if float64(matches)/float64(trials) < 0.6 {
		t.Errorf("top tower stable in only %d/%d scans", matches, trials)
	}
}

func TestSetDivergenceWithDistance(t *testing.T) {
	// Fingerprints 1.5 km apart should share almost no towers
	// (Fig. 2(c) premise); 50 m apart they should overlap heavily.
	d := testDeployment(t)
	rng := stats.NewRNG(10)
	overlap := func(a, b Fingerprint) int {
		set := make(map[CellID]bool, len(a))
		for _, c := range a {
			set[c] = true
		}
		n := 0
		for _, c := range b {
			if set[c] {
				n++
			}
		}
		return n
	}
	var near, far stats.Accumulator
	for i := 0; i < 50; i++ {
		base := geo.XY{X: rng.Range(800, 2000), Y: rng.Range(800, 2000)}
		fpBase := d.ScanFingerprint(base, Condition{}, rng)
		fpNear := d.ScanFingerprint(geo.XY{X: base.X + 40, Y: base.Y + 30}, Condition{}, rng)
		fpFar := d.ScanFingerprint(geo.XY{X: base.X + 1500, Y: base.Y + 900}, Condition{}, rng)
		if len(fpBase) == 0 {
			continue
		}
		near.Add(float64(overlap(fpBase, fpNear)) / float64(len(fpBase)))
		far.Add(float64(overlap(fpBase, fpFar)) / float64(len(fpBase)))
	}
	if near.Mean() < 0.6 {
		t.Errorf("nearby overlap = %v, want high", near.Mean())
	}
	if far.Mean() > 0.25 {
		t.Errorf("far overlap = %v, want low", far.Mean())
	}
	if far.Mean() >= near.Mean() {
		t.Error("overlap should decrease with distance")
	}
}

func TestShadowFrozenPerPlace(t *testing.T) {
	d := testDeployment(t)
	pos := geo.XY{X: 1215, Y: 885}
	id := d.Towers()[0].ID
	a := d.shadow(id, pos)
	b := d.shadow(id, pos)
	if a != b {
		t.Error("shadowing not frozen for identical position")
	}
	// The field is spatially correlated: 10 m away moves the fade by
	// far less than sigma.
	c := d.shadow(id, geo.XY{X: pos.X + 10, Y: pos.Y + 10})
	if math.Abs(a-c) > d.model.ShadowSigmaDB {
		t.Errorf("fade moved %v dB over 14 m, sigma %v", math.Abs(a-c), d.model.ShadowSigmaDB)
	}
	// A distant place should (almost surely) differ.
	far := d.shadow(id, geo.XY{X: pos.X + 1500, Y: pos.Y + 1500})
	if a == far {
		t.Error("distant shadowing identical — hashing broken?")
	}
}

func TestShadowCorrelationDecays(t *testing.T) {
	// Mean absolute fade difference should grow with displacement.
	d := testDeployment(t)
	rng := stats.NewRNG(21)
	diffAt := func(disp float64) float64 {
		var acc stats.Accumulator
		for i := 0; i < 300; i++ {
			id := d.Towers()[rng.Intn(d.NumTowers())].ID
			p := geo.XY{X: rng.Range(0, 3000), Y: rng.Range(0, 3000)}
			q := geo.XY{X: p.X + disp, Y: p.Y}
			acc.Add(math.Abs(d.shadow(id, p) - d.shadow(id, q)))
		}
		return acc.Mean()
	}
	near, mid, far := diffAt(10), diffAt(60), diffAt(500)
	if !(near < mid && mid < far) {
		t.Errorf("correlation not decaying: %v %v %v", near, mid, far)
	}
}

func TestBusAttenuationLowersRSS(t *testing.T) {
	// Compare the same tower's RSS on and off the bus: the mean over
	// *visible* towers is biased upward on the bus (weak towers drop
	// out), so track one strong tower explicitly.
	d := testDeployment(t)
	pos := geo.XY{X: 2000, Y: 1500}
	rng := stats.NewRNG(11)
	ref := d.Scan(pos, Condition{}, rng)
	if len(ref) == 0 {
		t.Fatal("no towers visible at probe point")
	}
	top := ref[0].Cell
	find := func(rs []Reading) (float64, bool) {
		for _, r := range rs {
			if r.Cell == top {
				return r.RSS, true
			}
		}
		return 0, false
	}
	var off, on stats.Accumulator
	for i := 0; i < 300; i++ {
		if v, ok := find(d.Scan(pos, Condition{}, rng)); ok {
			off.Add(v)
		}
		if v, ok := find(d.Scan(pos, Condition{OnBus: true}, rng)); ok {
			on.Add(v)
		}
	}
	if on.N() == 0 || off.N() == 0 {
		t.Fatal("top tower never observed")
	}
	if on.Mean() >= off.Mean() {
		t.Errorf("on-bus RSS %v not below off-bus %v", on.Mean(), off.Mean())
	}
}

func TestScanDeterministicGivenRNG(t *testing.T) {
	d := testDeployment(t)
	pos := geo.XY{X: 600, Y: 700}
	a := d.Scan(pos, Condition{}, stats.NewRNG(5))
	b := d.Scan(pos, Condition{}, stats.NewRNG(5))
	if len(a) != len(b) {
		t.Fatal("scan lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("scans differ with identical RNG")
		}
	}
}

func TestFingerprintHelpers(t *testing.T) {
	rs := []Reading{{Cell: 10, RSS: -60}, {Cell: 20, RSS: -70}}
	fp := FingerprintOf(rs)
	if !fp.Equal(Fingerprint{10, 20}) {
		t.Errorf("fingerprint = %v", fp)
	}
	if fp.Equal(Fingerprint{10}) || fp.Equal(Fingerprint{20, 10}) {
		t.Error("Equal false positives")
	}
	if fp.String() != "10,20" {
		t.Errorf("String = %q", fp.String())
	}
}

func TestMeanRSSDecaysWithDistance(t *testing.T) {
	d := testDeployment(t)
	tw := &d.Towers()[0]
	// Compare path loss without shadowing by averaging many placements.
	rssAt := func(dist float64) float64 {
		var acc stats.Accumulator
		for a := 0.0; a < 2*math.Pi; a += math.Pi / 16 {
			pos := geo.XY{X: tw.Pos.X + dist*math.Cos(a), Y: tw.Pos.Y + dist*math.Sin(a)}
			acc.Add(d.meanRSS(tw, pos))
		}
		return acc.Mean()
	}
	if rssAt(100) <= rssAt(400) {
		t.Error("RSS should decay with distance")
	}
	if rssAt(400) <= rssAt(900) {
		t.Error("RSS should decay with distance (far)")
	}
}
