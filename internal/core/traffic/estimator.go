package traffic

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"busprobe/internal/road"
	"busprobe/internal/stats"
)

// DefaultPeriodS is the paper's traffic-map refresh period T = 5 min.
const DefaultPeriodS = 300.0

// DefaultSingleReportVar is the variance assigned to an update window
// holding a single speed report, for which no sample variance exists.
const DefaultSingleReportVar = 25.0 // (5 km/h)^2

// DefaultDriftVarPerS is the process-noise rate: how fast the historic
// estimate's variance inflates between updates. Eq. 4 alone contracts
// variance monotonically, which would freeze the estimate at the all-day
// mean; traffic drifts (rush hours build and dissolve), so the tracker
// must forget. At 0.02 (km/h)^2/s a 30-minute-old belief has gained
// (6 km/h)^2 of uncertainty — it still dominates a single fresh report
// but yields to a consistent new window, which is what lets Fig. 10's
// v_A follow v_T through the day.
const DefaultDriftVarPerS = 0.02

// Observation is one bus travel-time measurement over the road segments
// between two (possibly non-adjacent, §III-D skipped-stop merging)
// consecutive identified stops of a mapped trip.
type Observation struct {
	// Segments are the directed road segments covered.
	Segments []road.SegmentID
	// LengthM is the total covered length.
	LengthM float64
	// FreeKmh is the free-flow automobile speed over the stretch.
	FreeKmh float64
	// BTTSeconds is the measured bus travel time (departing previous
	// stop to arriving at this one).
	BTTSeconds float64
	// TimeS is the observation timestamp.
	TimeS float64
}

// segState is the per-segment estimator state: the fused historic belief
// plus the retained per-window report sets it was folded from.
type segState struct {
	hist Estimate
	// base / baseIdx checkpoint the belief at the last Compact: windows
	// below baseIdx have been discarded, so the fold chain replays from
	// base instead of from scratch.
	base    Estimate
	baseIdx int64
	// foldedIdx is the exclusive upper window index already folded into
	// hist. Always >= baseIdx.
	foldedIdx int64
	// dirty marks that a report landed in an already-folded window (an
	// out-of-order delivery); the fold chain is replayed from base on
	// the next settle.
	dirty bool
	// windows holds each update window's speed reports, kept sorted so
	// the fold is a pure function of the report multiset — delivery
	// order never changes an estimate.
	windows map[int64][]float64
}

// Estimator maintains the per-segment traffic estimates: observations
// accumulate into periodic update windows, and completed windows are
// folded into the Bayesian belief (Eq. 4) in window order.
//
// Folding is deterministic in the *set* of observations, not their
// arrival order: reports are bucketed by their own timestamps, each
// window's reports are kept sorted, and a report arriving for an
// already-folded window replays the segment's fold chain. Two runs that
// deliver the same observations — in any order, with any interleaving
// of Advance calls — therefore produce byte-identical estimates, which
// is what lets the chaos harness assert that duplicated and reordered
// uploads cannot corrupt the traffic map. Safe for concurrent use.
//
// Reads never take the mutex: every mutator settles the fold eagerly
// and, when any belief changed, publishes a fresh immutable Snapshot
// through an atomic pointer. Because the fold is a pure function of
// the report multiset and the watermark — and only mutators move
// either — settling eagerly at mutation time yields exactly the
// estimates the previous read-time settle produced.
type Estimator struct {
	mu        sync.Mutex
	model     Model
	periodS   float64
	driftPerS float64
	segs      map[road.SegmentID]*segState //lint:guardedby mu
	// watermarkIdx is the exclusive upper window index due for folding:
	// windows below it are complete. It advances with observation and
	// Advance timestamps and never retreats.
	watermarkIdx int64 //lint:guardedby mu
	lateDropped  int   //lint:guardedby mu
	// snap is the published copy-on-write state; Get/Snapshot/View load
	// it without locking. Mutators swap it under mu, so versions are
	// monotone.
	snap atomic.Pointer[Snapshot]
}

// NewEstimator returns an estimator with the given transit model, update
// period, and process-noise rate (use DefaultDriftVarPerS; 0 disables
// forgetting and reduces to pure Eq. 4).
func NewEstimator(model Model, periodS, driftVarPerS float64) (*Estimator, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if periodS <= 0 {
		return nil, fmt.Errorf("traffic: non-positive period %v", periodS)
	}
	if driftVarPerS < 0 {
		return nil, fmt.Errorf("traffic: negative drift rate %v", driftVarPerS)
	}
	e := &Estimator{
		model:     model,
		periodS:   periodS,
		driftPerS: driftVarPerS,
		segs:      make(map[road.SegmentID]*segState),
	}
	e.snap.Store(EmptySnapshot())
	return e, nil
}

// Model returns the transit model in use.
func (e *Estimator) Model() Model { return e.model }

// windowOf buckets a timestamp into its update-window index.
func (e *Estimator) windowOf(tS float64) int64 {
	return int64(math.Floor(tS / e.periodS))
}

// AddObservation converts a bus observation to an automobile speed via
// Eq. 3 and buckets it into the update window of its own timestamp on
// every covered segment (the uniform-speed-along-leg assumption). The
// observation time also advances the fold watermark, so a fresher
// report implicitly completes older windows.
func (e *Estimator) AddObservation(obs Observation) error {
	if len(obs.Segments) == 0 {
		return fmt.Errorf("traffic: observation covers no segments")
	}
	speed, err := e.model.SpeedKmh(obs.LengthM, obs.FreeKmh, obs.BTTSeconds)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	idx := e.windowOf(obs.TimeS)
	advanced := false
	if idx > e.watermarkIdx {
		e.watermarkIdx = idx
		advanced = true
	}
	touched := make([]*segState, 0, len(obs.Segments))
	for _, sid := range obs.Segments {
		st := e.segs[sid]
		if st == nil {
			st = &segState{windows: make(map[int64][]float64)}
			e.segs[sid] = st
		}
		if idx < st.baseIdx {
			// The window was compacted away; the report arrived too
			// late to be honored.
			e.lateDropped++
			continue
		}
		lst := st.windows[idx]
		at := sort.SearchFloat64s(lst, speed)
		lst = append(lst, 0)
		copy(lst[at+1:], lst[at:])
		lst[at] = speed
		st.windows[idx] = lst
		if idx < st.foldedIdx {
			st.dirty = true
		}
		touched = append(touched, st)
	}
	folded := false
	if advanced {
		folded = e.settleAllLocked()
	} else {
		for _, st := range touched {
			if e.settleLocked(st) {
				folded = true
			}
		}
	}
	if folded {
		e.publishLocked()
	}
	return nil
}

// Advance moves the fold watermark to the given time and folds completed
// windows. Call it from the clock driver.
func (e *Estimator) Advance(nowS float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if idx := e.windowOf(nowS); idx > e.watermarkIdx {
		e.watermarkIdx = idx
	}
	if e.settleAllLocked() {
		e.publishLocked()
	}
}

// settleAllLocked folds every segment up to the watermark, reporting
// whether any belief may have changed.
func (e *Estimator) settleAllLocked() bool {
	folded := false
	for _, st := range e.segs {
		if e.settleLocked(st) {
			folded = true
		}
	}
	return folded
}

// settleLocked brings one segment's belief up to the watermark: a dirty
// segment (late report) replays its fold chain from the checkpoint,
// then every complete unfolded window is folded in ascending order.
// Each window folds at its own end boundary regardless of when settle
// runs, so the result depends only on the report multiset and the
// watermark. The return reports whether any fold ran — i.e. whether
// the belief may differ from the published snapshot.
func (e *Estimator) settleLocked(st *segState) bool {
	replayed := false
	if st.dirty {
		st.hist = st.base
		st.foldedIdx = st.baseIdx
		st.dirty = false
		replayed = true
	}
	if st.foldedIdx >= e.watermarkIdx {
		return replayed
	}
	var due []int64
	for idx := range st.windows {
		if idx >= st.foldedIdx && idx < e.watermarkIdx {
			due = append(due, idx)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, idx := range due {
		var acc stats.Accumulator
		for _, v := range st.windows[idx] {
			acc.Add(v)
		}
		v := acc.Mean()
		varV := acc.Var()
		if acc.N() < 2 || varV <= 0 {
			varV = DefaultSingleReportVar
		}
		endS := float64(idx+1) * e.periodS
		st.hist = fuseAt(Inflate(st.hist, endS, e.driftPerS), v, varV, endS)
	}
	st.foldedIdx = e.watermarkIdx
	return replayed || len(due) > 0
}

// publishLocked swaps in a fresh immutable snapshot of every settled
// belief. NextSnapshot diffs against the published state, so a settle
// that refolded to identical values publishes nothing and the version
// only moves on a value-visible change.
func (e *Estimator) publishLocked() {
	prev := e.snap.Load()
	m := make(map[road.SegmentID]Estimate, len(e.segs))
	for sid, st := range e.segs {
		if st.hist.Reports > 0 {
			m[sid] = st.hist
		}
	}
	if next := NextSnapshot(prev, m); next != prev {
		e.snap.Store(next)
	}
}

// Compact checkpoints every segment's belief and discards the folded
// window reports behind it, bounding the estimator's memory on long
// deployments. Reports arriving for a compacted window afterwards are
// dropped and counted by LateDropped — compaction trades unbounded
// reorder tolerance for bounded state, so run it no more often than the
// staleness the upload path can produce.
func (e *Estimator) Compact() {
	e.mu.Lock()
	defer e.mu.Unlock()
	folded := false
	for _, st := range e.segs {
		if e.settleLocked(st) {
			folded = true
		}
		st.base = st.hist
		st.baseIdx = st.foldedIdx
		for idx := range st.windows {
			if idx < st.baseIdx {
				delete(st.windows, idx)
			}
		}
	}
	if folded {
		e.publishLocked()
	}
}

// LateDropped counts reports that arrived after their window was
// compacted away and could not be folded.
func (e *Estimator) LateDropped() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lateDropped
}

// fuseAt is Fuse plus the update timestamp.
func fuseAt(hist Estimate, v, varV, atS float64) Estimate {
	out := Fuse(hist, v, varV)
	out.UpdatedS = atS
	return out
}

// Get returns the fused estimate for a segment, if any window has been
// folded for it yet. Lock-free: it reads the published snapshot.
func (e *Estimator) Get(sid road.SegmentID) (Estimate, bool) {
	return e.snap.Load().Get(sid)
}

// View returns the current published snapshot: an immutable, shared,
// versioned value readers may hold indefinitely. Lock-free. Callers
// must not mutate its maps.
func (e *Estimator) View() *Snapshot {
	return e.snap.Load()
}

// Snapshot returns the current fused estimate of every segment with at
// least one folded report, as a mutable copy the caller owns.
// Lock-free; use View to avoid the copy.
func (e *Estimator) Snapshot() map[road.SegmentID]Estimate {
	return e.snap.Load().CloneEstimates()
}

// CoveredSegments returns the IDs with folded estimates, ascending.
func (e *Estimator) CoveredSegments() []road.SegmentID {
	snap := e.View()
	out := make([]road.SegmentID, 0, len(snap.Estimates))
	for sid := range snap.Estimates {
		out = append(out, sid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
