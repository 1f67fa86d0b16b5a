package traffic

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"busprobe/internal/road"
	"busprobe/internal/stats"
)

func TestATTKnownValues(t *testing.T) {
	m := DefaultModel()
	// 500 m at 50 km/h free flow: a = 36 s. BTT 80 s -> ATT 76 s.
	att, err := m.ATTSeconds(500, 50, 80)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(att-76) > 1e-9 {
		t.Errorf("ATT = %v, want 76", att)
	}
	v, err := m.SpeedKmh(500, 50, 80)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-500.0/76*3.6) > 1e-9 {
		t.Errorf("speed = %v", v)
	}
}

func TestModelErrors(t *testing.T) {
	m := DefaultModel()
	if _, err := m.ATTSeconds(0, 50, 10); err == nil {
		t.Error("want error for zero length")
	}
	if _, err := m.ATTSeconds(500, 0, 10); err == nil {
		t.Error("want error for zero free speed")
	}
	if _, err := m.ATTSeconds(500, 50, 0); err == nil {
		t.Error("want error for zero BTT")
	}
	if err := (Model{B: 0}).Validate(); err == nil {
		t.Error("want error for zero B")
	}
}

func TestATTMonotoneInBTT(t *testing.T) {
	m := DefaultModel()
	prev := 0.0
	for btt := 10.0; btt <= 600; btt += 10 {
		att, err := m.ATTSeconds(500, 50, btt)
		if err != nil {
			t.Fatal(err)
		}
		if att <= prev {
			t.Fatalf("ATT not increasing at BTT=%v", btt)
		}
		prev = att
	}
}

func TestFuseMovesTowardObservation(t *testing.T) {
	hist := Estimate{SpeedKmh: 40, Var: 9, Reports: 3}
	out := Fuse(hist, 20, 9)
	if math.Abs(out.SpeedKmh-30) > 1e-9 {
		t.Errorf("equal variances should average: %v", out.SpeedKmh)
	}
	if out.Var >= 9 {
		t.Errorf("variance should contract: %v", out.Var)
	}
	if out.Reports != 4 {
		t.Errorf("reports = %d", out.Reports)
	}
}

func TestFuseWeightsByPrecision(t *testing.T) {
	hist := Estimate{SpeedKmh: 40, Var: 1, Reports: 5} // confident prior
	out := Fuse(hist, 20, 100)                         // noisy observation
	if math.Abs(out.SpeedKmh-40) > 1 {
		t.Errorf("noisy observation moved confident prior to %v", out.SpeedKmh)
	}
	flip := Fuse(Estimate{SpeedKmh: 40, Var: 100, Reports: 5}, 20, 1)
	if math.Abs(flip.SpeedKmh-20) > 1 {
		t.Errorf("confident observation ignored: %v", flip.SpeedKmh)
	}
}

func TestFuseNoPriorAdoptsObservation(t *testing.T) {
	out := Fuse(Estimate{}, 33, 4)
	if out.SpeedKmh != 33 || out.Var != 4 || out.Reports != 1 {
		t.Errorf("no-prior fuse = %+v", out)
	}
}

func TestFuseVarianceContractsProperty(t *testing.T) {
	f := func(v1, v2, s1, s2 float64) bool {
		if math.IsNaN(v1) || math.IsNaN(v2) || math.IsNaN(s1) || math.IsNaN(s2) {
			return true
		}
		h2 := math.Mod(math.Abs(v1), 1000) + 0.1
		s2v := math.Mod(math.Abs(v2), 1000) + 0.1
		hist := Estimate{SpeedKmh: 30 + math.Mod(s1, 40), Var: h2, Reports: 1}
		out := Fuse(hist, 30+math.Mod(s2, 40), s2v)
		return out.Var <= math.Min(h2, s2v)+1e-9 && out.Var > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelOf(t *testing.T) {
	cases := []struct {
		v    float64
		want Level
	}{
		{5, LevelVerySlow}, {19.9, LevelVerySlow}, {20, LevelSlow},
		{29, LevelSlow}, {35, LevelNormal}, {45, LevelFast},
		{50, LevelVeryFast}, {80, LevelVeryFast},
	}
	for _, c := range cases {
		if got := LevelOf(c.v); got != c.want {
			t.Errorf("LevelOf(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if LevelVerySlow.String() != "very slow" || Level(9).String() != "level(9)" {
		t.Error("Level strings wrong")
	}
}

// foldPublish folds one observation and publishes it, as a writer
// acknowledging a one-observation request does.
func foldPublish(e *Estimator, o Observation) error {
	_, err := e.Fold([]Observation{o})
	e.Publish()
	return err
}

func newEstimator(t *testing.T) *Estimator {
	t.Helper()
	e, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func obs(segs []road.SegmentID, btt, at float64) Observation {
	return Observation{
		Segments:   segs,
		LengthM:    500,
		FreeKmh:    50,
		BTTSeconds: btt,
		TimeS:      at,
	}
}

func TestEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(Model{B: 0}, 300, 0); err == nil {
		t.Error("want error for bad model")
	}
	if _, err := NewEstimator(DefaultModel(), 0, 0); err == nil {
		t.Error("want error for zero period")
	}
	if _, err := NewEstimator(DefaultModel(), 300, -1); err == nil {
		t.Error("want error for negative drift")
	}
	e := newEstimator(t)
	if err := foldPublish(e, Observation{}); err == nil {
		t.Error("want error for empty observation")
	}
	if err := foldPublish(e, obs([]road.SegmentID{1}, 0, 10)); err == nil {
		t.Error("want error for zero BTT")
	}
}

func TestEstimatorFoldsAtPeriod(t *testing.T) {
	e := newEstimator(t)
	if err := foldPublish(e, obs([]road.SegmentID{1, 2}, 80, 100)); err != nil {
		t.Fatal(err)
	}
	// Before the first period boundary: nothing folded yet.
	if _, ok := e.Get(1); ok {
		t.Error("estimate visible before fold")
	}
	e.Advance(DefaultPeriodS)
	est, ok := e.Get(1)
	if !ok {
		t.Fatal("estimate missing after fold")
	}
	wantSpeed := 500.0 / 76 * 3.6
	if math.Abs(est.SpeedKmh-wantSpeed) > 1e-9 {
		t.Errorf("speed = %v, want %v", est.SpeedKmh, wantSpeed)
	}
	if est.UpdatedS != DefaultPeriodS {
		t.Errorf("UpdatedS = %v", est.UpdatedS)
	}
	if _, ok := e.Get(2); !ok {
		t.Error("second covered segment missing")
	}
	if _, ok := e.Get(3); ok {
		t.Error("uncovered segment has estimate")
	}
}

func TestEstimatorWindowAveragesThenFuses(t *testing.T) {
	e := newEstimator(t)
	// Two reports in window 1, both on segment 1.
	if err := foldPublish(e, obs([]road.SegmentID{1}, 60, 10)); err != nil {
		t.Fatal(err)
	}
	if err := foldPublish(e, obs([]road.SegmentID{1}, 100, 20)); err != nil {
		t.Fatal(err)
	}
	e.Advance(300)
	first, _ := e.Get(1)
	if first.Reports != 1 {
		t.Errorf("window fold should count as one Bayesian update, got %d", first.Reports)
	}
	// A much slower second window pulls the estimate down.
	if err := foldPublish(e, obs([]road.SegmentID{1}, 400, 310)); err != nil {
		t.Fatal(err)
	}
	e.Advance(600)
	second, _ := e.Get(1)
	if second.Reports != 2 {
		t.Errorf("reports = %d", second.Reports)
	}
	if second.SpeedKmh >= first.SpeedKmh {
		t.Errorf("slow window did not lower estimate: %v -> %v", first.SpeedKmh, second.SpeedKmh)
	}
	if second.Var >= first.Var {
		t.Errorf("variance did not contract: %v -> %v", first.Var, second.Var)
	}
}

func TestEstimatorSnapshotAndCovered(t *testing.T) {
	e := newEstimator(t)
	if err := foldPublish(e, obs([]road.SegmentID{3, 1}, 80, 10)); err != nil {
		t.Fatal(err)
	}
	e.Advance(300)
	snap := e.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot size = %d", len(snap))
	}
	if _, ok := snap[1]; !ok {
		t.Errorf("segment 1 not covered: %v", snap)
	}
	if _, ok := snap[3]; !ok {
		t.Errorf("segment 3 not covered: %v", snap)
	}
}

func TestEstimatorConcurrent(t *testing.T) {
	e := newEstimator(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sid := road.SegmentID(i % 10)
				if err := foldPublish(e, obs([]road.SegmentID{sid}, 50+float64(i), float64(i))); err != nil {
					t.Error(err)
					return
				}
				e.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	e.Advance(1e6)
	if len(e.Snapshot()) == 0 {
		t.Error("no estimates after concurrent load")
	}
}

func TestEstimatorLateObservationTriggersFolds(t *testing.T) {
	e := newEstimator(t)
	if err := foldPublish(e, obs([]road.SegmentID{1}, 80, 10)); err != nil {
		t.Fatal(err)
	}
	// An observation far in the future advances through many periods,
	// folding the pending window on the way.
	if err := foldPublish(e, obs([]road.SegmentID{1}, 90, 10*DefaultPeriodS+1)); err != nil {
		t.Fatal(err)
	}
	est, ok := e.Get(1)
	if !ok || est.Reports != 1 {
		t.Errorf("first window not folded by implicit advance: %+v ok=%v", est, ok)
	}
}

func TestEstimatorOrderInsensitiveProperty(t *testing.T) {
	// The chaos suite's foundation: the settled map is a pure function
	// of the observation multiset and the final watermark, so any
	// delivery order — including late arrivals behind interleaved
	// Advance calls — folds to identical estimates.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 5 + rng.Intn(30)
		obsSet := make([]Observation, n)
		for i := range obsSet {
			obsSet[i] = obs(
				[]road.SegmentID{road.SegmentID(rng.Intn(4)), road.SegmentID(4 + rng.Intn(3))},
				rng.Range(40, 400),
				rng.Range(0, 6*DefaultPeriodS),
			)
		}
		endS := 7 * DefaultPeriodS

		serial := newEstimator(t)
		for _, o := range obsSet {
			if err := foldPublish(serial, o); err != nil {
				return false
			}
		}
		serial.Advance(endS)

		shuffled := newEstimator(t)
		for i, p := range rng.Perm(n) {
			if err := foldPublish(shuffled, obsSet[p]); err != nil {
				return false
			}
			// Interleave settles: late arrivals must refold cleanly.
			if i%3 == 0 {
				shuffled.Advance(rng.Range(0, endS))
				shuffled.Snapshot()
			}
		}
		shuffled.Advance(endS)

		return reflect.DeepEqual(serial.Snapshot(), shuffled.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorCompactBoundsStateAndCountsLate(t *testing.T) {
	e := newEstimator(t)
	if err := foldPublish(e, obs([]road.SegmentID{1}, 80, 10)); err != nil {
		t.Fatal(err)
	}
	e.Advance(DefaultPeriodS)
	before, _ := e.Get(1)
	e.Compact()

	// A report for the compacted window is dropped, not folded.
	if err := foldPublish(e, obs([]road.SegmentID{1}, 400, 20)); err != nil {
		t.Fatal(err)
	}
	e.Advance(2 * DefaultPeriodS)
	if got := e.Counts().LateDropped; got != 1 {
		t.Errorf("LateDropped = %d, want 1", got)
	}
	after, _ := e.Get(1)
	if after != before {
		t.Errorf("compacted-window report changed the estimate: %+v -> %+v", before, after)
	}

	// Reports for live windows still fold normally after compaction.
	if err := foldPublish(e, obs([]road.SegmentID{1}, 400, 2*DefaultPeriodS+10)); err != nil {
		t.Fatal(err)
	}
	e.Advance(3 * DefaultPeriodS)
	final, _ := e.Get(1)
	if final.Reports != before.Reports+1 || final.SpeedKmh >= before.SpeedKmh {
		t.Errorf("post-compaction fold missing: %+v -> %+v", before, final)
	}
}

func TestEstimatorCompactionIdempotentWhenTimely(t *testing.T) {
	// Compacting between settles must not change estimates as long as
	// no report arrives later than the compaction point.
	build := func(compact bool) map[road.SegmentID]Estimate {
		e := newEstimator(t)
		for w := 0; w < 4; w++ {
			at := float64(w)*DefaultPeriodS + 10
			if err := foldPublish(e, obs([]road.SegmentID{1, 2}, 60+20*float64(w), at)); err != nil {
				t.Fatal(err)
			}
			e.Advance(float64(w+1) * DefaultPeriodS)
			if compact {
				e.Compact()
			}
		}
		return e.Snapshot()
	}
	if got, want := build(true), build(false); !reflect.DeepEqual(got, want) {
		t.Errorf("compaction changed timely estimates:\n%v\n%v", got, want)
	}
}

// refEstimator is the estimator as it was before the fold and the
// publish became incremental, kept as the oracle: every belief is
// folded from scratch over the segment's whole retained window set,
// and every mutation rebuilds the full map through NextSnapshot.
type refEstimator struct {
	cfg         *Estimator // configuration only: model, period, drift
	watermark   int64
	lateDropped int
	segs        map[road.SegmentID]*refSeg
	snap        *Snapshot
}

type refSeg struct {
	base    Estimate
	baseIdx int64
	windows map[int64][]float64
}

func newRefEstimator(cfg *Estimator) *refEstimator {
	return &refEstimator{cfg: cfg, segs: map[road.SegmentID]*refSeg{}, snap: EmptySnapshot()}
}

// foldFromScratch is the from-scratch fold: base, then every complete
// retained window in ascending order, each summarised by one Welford
// pass over its sorted reports and fused at its own end boundary.
func (r *refEstimator) foldFromScratch(s *refSeg) Estimate {
	var due []int64
	for idx := range s.windows {
		if idx >= s.baseIdx && idx < r.watermark {
			due = append(due, idx)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	hist := s.base
	for _, idx := range due {
		var acc stats.Accumulator
		for _, v := range s.windows[idx] {
			acc.Add(v)
		}
		v, varV := acc.Mean(), acc.Var()
		if acc.N() < 2 || varV <= 0 {
			varV = DefaultSingleReportVar
		}
		endS := float64(idx+1) * r.cfg.periodS
		hist = fuseAt(Inflate(hist, endS, r.cfg.driftPerS), v, varV, endS)
	}
	return hist
}

func (r *refEstimator) publish() {
	m := make(map[road.SegmentID]Estimate, len(r.segs))
	for sid, s := range r.segs {
		if hist := r.foldFromScratch(s); hist.Reports > 0 {
			m[sid] = hist
		}
	}
	r.snap = NextSnapshot(r.snap, m)
}

func (r *refEstimator) add(o Observation) {
	r.fold(o)
	r.publish()
}

// fold buckets one observation without publishing.
func (r *refEstimator) fold(o Observation) {
	speed, err := r.cfg.model.SpeedKmh(o.LengthM, o.FreeKmh, o.BTTSeconds)
	if err != nil {
		panic(err)
	}
	idx := r.cfg.windowOf(o.TimeS)
	r.watermark = max(r.watermark, idx)
	for _, sid := range o.Segments {
		s := r.segs[sid]
		if s == nil {
			s = &refSeg{windows: map[int64][]float64{}}
			r.segs[sid] = s
		}
		if idx < s.baseIdx {
			r.lateDropped++
			continue
		}
		s.windows[idx] = append(s.windows[idx], speed)
		sort.Float64s(s.windows[idx])
	}
}

func (r *refEstimator) advance(nowS float64) {
	r.watermark = max(r.watermark, r.cfg.windowOf(nowS))
	r.publish()
}

func (r *refEstimator) compact() {
	r.publish()
	for _, s := range r.segs {
		s.base, s.baseIdx = r.foldFromScratch(s), r.watermark
		for idx := range s.windows {
			if idx < s.baseIdx {
				delete(s.windows, idx)
			}
		}
	}
}

// state is what ExportState must return for the same history.
func (r *refEstimator) state() *State {
	st := &State{
		WatermarkIdx: r.watermark,
		LateDropped:  r.lateDropped,
		Segments:     []SegmentState{},
		SnapVersion:  r.snap.Version,
		ChangedAt:    marksOf(r.snap.ChangedAt),
		RemovedAt:    marksOf(r.snap.RemovedAt),
	}
	for sid, s := range r.segs {
		ss := SegmentState{Segment: sid, Hist: r.foldFromScratch(s), Base: s.base, BaseIdx: s.baseIdx, FoldedIdx: r.watermark}
		for idx, speeds := range s.windows {
			ss.Windows = append(ss.Windows, WindowState{Idx: idx, Speeds: speeds})
		}
		sort.Slice(ss.Windows, func(i, j int) bool { return ss.Windows[i].Idx < ss.Windows[j].Idx })
		st.Segments = append(st.Segments, ss)
	}
	sort.Slice(st.Segments, func(i, j int) bool { return st.Segments[i].Segment < st.Segments[j].Segment })
	return st
}

// oraclePair drives an Estimator and the reference through the same
// history and, after every step, holds the estimator to the reference
// bit for bit and to its own chain invariant. Both publish at the same
// boundaries: a fold without a publish must leave the published view
// where it was, on both sides.
type oraclePair struct {
	t   *testing.T
	e   *Estimator
	ref *refEstimator
	// maxPending is the most segments ever left pending by a fold, so a
	// schedule can show it held back more than one publish's worth.
	maxPending int
}

func newOraclePair(t *testing.T) *oraclePair {
	e := newEstimator(t)
	return &oraclePair{t: t, e: e, ref: newRefEstimator(e)}
}

func (p *oraclePair) add(o Observation) {
	p.t.Helper()
	if err := foldPublish(p.e, o); err != nil {
		p.t.Fatal(err)
	}
	p.ref.add(o)
	p.check("Fold+Publish")
}

// fold folds a group as one call and publishes nothing.
func (p *oraclePair) fold(group []Observation) {
	p.t.Helper()
	if n, err := p.e.Fold(group); err != nil || n != len(group) {
		p.t.Fatalf("Fold of %d folded %d: %v", len(group), n, err)
	}
	for _, o := range group {
		p.ref.fold(o)
	}
	p.maxPending = max(p.maxPending, p.e.Counts().Pending)
	p.checkView("Fold")
	p.checkChain("Fold")
}

func (p *oraclePair) publish() {
	p.t.Helper()
	p.e.Publish()
	p.ref.publish()
	p.check("Publish")
}

func (p *oraclePair) advance(nowS float64) {
	p.t.Helper()
	p.e.Advance(nowS)
	p.ref.advance(nowS)
	p.check("Advance")
}

func (p *oraclePair) compact() {
	p.t.Helper()
	p.e.Compact()
	p.ref.compact()
	p.check("Compact")
}

// reimport replaces the estimator by a fresh one booted from its own
// exported JSON: the derived chain must be rebuilt to the same state.
// The export is a publish boundary.
func (p *oraclePair) reimport() {
	p.t.Helper()
	blob, err := json.Marshal(p.e.ExportState())
	if err != nil {
		p.t.Fatal(err)
	}
	p.ref.publish()
	var st State
	if err := json.Unmarshal(blob, &st); err != nil {
		p.t.Fatal(err)
	}
	p.e = newEstimator(p.t)
	if err := p.e.ImportState(&st); err != nil {
		p.t.Fatal(err)
	}
	p.check("ExportState → ImportState")
}

// check holds a publish boundary to the reference: the published view,
// nothing left pending, and the exported state.
func (p *oraclePair) check(step string) {
	p.t.Helper()
	p.checkView(step)
	if n := p.e.Counts().Pending; n != 0 {
		p.t.Fatalf("after %s: %d segments still pending", step, n)
	}
	gotJSON, err := json.Marshal(p.e.ExportState())
	if err != nil {
		p.t.Fatal(err)
	}
	wantJSON, err := json.Marshal(p.ref.state())
	if err != nil {
		p.t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		p.t.Fatalf("after %s: exported state differs from the reference:\n%s\n%s", step, gotJSON, wantJSON)
	}
	p.checkChain(step)
}

// checkView holds the published snapshot to the reference's: version,
// estimates and change marks.
func (p *oraclePair) checkView(step string) {
	p.t.Helper()
	got, want := p.e.View(), p.ref.snap
	if got.Version != want.Version {
		p.t.Fatalf("after %s: version %d, reference %d", step, got.Version, want.Version)
	}
	if !reflect.DeepEqual(got.Estimates, want.Estimates) {
		p.t.Fatalf("after %s: estimates diverge from the from-scratch fold:\n%v\n%v", step, got.Estimates, want.Estimates)
	}
	if !reflect.DeepEqual(got.ChangedAt, want.ChangedAt) {
		p.t.Fatalf("after %s: ChangedAt %v, reference %v", step, got.ChangedAt, want.ChangedAt)
	}
}

// checkChain asserts the invariant the incremental fold rests on: the
// folded prefix is exactly the windows with idx < foldedIdx, each
// remembering the belief a fold from base reaches right after it, and
// hist is the last of those.
func (p *oraclePair) checkChain(step string) {
	p.t.Helper()
	e := p.e
	e.mu.Lock()
	defer e.mu.Unlock()
	windows := 0
	for sid, st := range e.segs {
		belief := st.base
		for i := range st.wins {
			w := st.wins[i]
			if i > 0 && w.idx <= st.wins[i-1].idx {
				p.t.Fatalf("after %s: segment %d windows not ascending at %d", step, sid, w.idx)
			}
			if w.idx < st.baseIdx {
				p.t.Fatalf("after %s: segment %d retains window %d below base %d", step, sid, w.idx, st.baseIdx)
			}
			fresh := window{idx: w.idx, speeds: w.speeds}
			fresh.summarise()
			if fresh.mean != w.mean || fresh.varV != w.varV {
				p.t.Fatalf("after %s: segment %d window %d summary stale", step, sid, w.idx)
			}
			if w.idx >= st.foldedIdx {
				continue
			}
			if belief = e.foldWindow(belief, &fresh); belief != w.after {
				p.t.Fatalf("after %s: segment %d window %d remembers %+v, chain holds %+v", step, sid, w.idx, w.after, belief)
			}
		}
		if st.hist != belief {
			p.t.Fatalf("after %s: segment %d hist %+v, chain ends at %+v", step, sid, st.hist, belief)
		}
		windows += len(st.wins)
	}
	if e.counts.Windows != windows {
		p.t.Fatalf("after %s: Counts().Windows = %d, retained %d", step, e.counts.Windows, windows)
	}
}

// TestEstimatorMatchesFromScratchFold holds the incremental fold and
// the clone-and-patch publish to the from-scratch reference across
// seeded random schedules — shuffled (so mostly late) reports folded in
// random-size groups, publishes at random boundaries, watermark
// advances, compactions and export/import reboots — and on the named
// cases the early-stop rule has to get right.
func TestEstimatorMatchesFromScratchFold(t *testing.T) {
	at := func(window float64) float64 { return window * DefaultPeriodS }
	one := []road.SegmentID{1}

	t.Run("random schedules", func(t *testing.T) {
		for seed := uint64(1); seed <= 12; seed++ {
			rng := stats.NewRNG(seed)
			p := newOraclePair(t)
			for step := 0; step < 250; step++ {
				switch k := rng.Intn(20); {
				case k < 15:
					group := make([]Observation, 1+rng.Intn(5))
					for i := range group {
						segs := []road.SegmentID{road.SegmentID(rng.Intn(4))}
						for rng.Intn(3) == 0 {
							segs = append(segs, road.SegmentID(rng.Intn(6))) // may repeat a segment
						}
						group[i] = obs(segs, rng.Range(40, 400), rng.Range(0, at(30)))
					}
					p.fold(group)
					if rng.Intn(3) == 0 {
						p.publish()
					}
				case k < 17:
					p.advance(rng.Range(0, at(32)))
				case k < 18:
					p.compact()
				default:
					p.reimport()
				}
			}
			if p.maxPending < 2 {
				t.Fatalf("seed %d: no fold left more than %d segments pending; the boundaries are untested", seed, p.maxPending)
			}
		}
	})

	// 500 folded windows of two reports each on one segment.
	deep := func(t *testing.T, stride int) *oraclePair {
		p := newOraclePair(t)
		for w := 0; w < 500; w++ {
			for _, btt := range []float64{70, 90 + float64(w%7)} {
				if err := foldPublish(p.e, obs(one, btt, at(float64(w*stride))+10)); err != nil {
					t.Fatal(err)
				}
				p.ref.add(obs(one, btt, at(float64(w*stride))+10))
			}
		}
		p.advance(at(float64(500 * stride)))
		return p
	}

	t.Run("late report into an existing window rejoins", func(t *testing.T) {
		p := deep(t, 1)
		before, view := p.e.Counts(), p.e.View()
		p.add(obs(one, 200, at(3)+20))
		folds := p.e.Counts().WindowFolds - before.WindowFolds
		if folds < 1 || folds > 150 {
			t.Errorf("late report into window 3 of 500 ran %d window folds, want a short refold", folds)
		}
		if p.e.View() != view {
			t.Errorf("tail rejoined its chain yet a snapshot was published (version %d -> %d)", view.Version, p.e.View().Version)
		}
		if got := p.e.Counts().Windows; got != before.Windows {
			t.Errorf("report into an existing window moved Windows %d -> %d", before.Windows, got)
		}
	})

	t.Run("late report opening a new window refolds to the end", func(t *testing.T) {
		p := deep(t, 2) // windows 0, 2, …, 998
		before, view := p.e.Counts(), p.e.View()
		p.add(obs(one, 200, at(3)+20))
		after := p.e.Counts()
		// The new window 3 plus the 498 retained ones above it.
		if folds := after.WindowFolds - before.WindowFolds; folds != 499 {
			t.Errorf("new window 3 ran %d window folds, want 499", folds)
		}
		if after.Windows != before.Windows+1 {
			t.Errorf("Windows %d -> %d, want one more", before.Windows, after.Windows)
		}
		if got := p.e.View(); got.Version != view.Version+1 || got.Estimates[1].Reports != 501 {
			t.Errorf("new window published version %d with %d reports, want %d with 501",
				got.Version, got.Estimates[1].Reports, view.Version+1)
		}
	})

	t.Run("new window beyond the last folded one but below the watermark", func(t *testing.T) {
		p := newOraclePair(t)
		p.add(obs(one, 80, at(2)+10))
		p.advance(at(10))
		p.add(obs(one, 120, at(5)+10)) // joins the folded prefix at once
		if got, _ := p.e.Get(1); got.Reports != 2 {
			t.Errorf("window 5 not folded on arrival: %+v", got)
		}
		p.add(obs(one, 300, at(5)+20)) // and is refolded as part of it
		p.add(obs(one, 90, at(2)+20))
		p.add(obs(one, 60, at(12)+1)) // advances the watermark past everything
	})

	t.Run("duplicate segment inside one observation", func(t *testing.T) {
		p := newOraclePair(t)
		p.add(obs([]road.SegmentID{1, 1, 2}, 80, at(1)+10))
		p.advance(at(4))
		p.add(obs([]road.SegmentID{2, 1, 2}, 150, at(1)+20)) // late, twice into segment 2
		p.add(obs([]road.SegmentID{1, 1}, 110, at(2)+5))     // late, opens one window with two reports
	})
}

// BenchmarkEstimatorLateReport measures what a phone that uploads when
// it finds connectivity costs the fold: one segment set with 200 folded
// windows, every report landing in a random existing window. Reported,
// never gated.
func BenchmarkEstimatorLateReport(b *testing.B) {
	e, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
	if err != nil {
		b.Fatal(err)
	}
	segs := []road.SegmentID{1, 2, 3, 4}
	rng := stats.NewRNG(7)
	for w := 0; w < 200; w++ {
		for r := 0; r < 3; r++ {
			if err := foldPublish(e, obs(segs, rng.Range(40, 400), float64(w)*DefaultPeriodS+rng.Range(0, DefaultPeriodS))); err != nil {
				b.Fatal(err)
			}
		}
	}
	e.Advance(200 * DefaultPeriodS)
	before := e.Counts().WindowFolds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := foldPublish(e, obs(segs, rng.Range(40, 400), rng.Range(0, 200*DefaultPeriodS))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e.Counts().WindowFolds-before)/float64(b.N), "windowfolds/op")
}
