package traffic

import (
	"fmt"
	"math"
	"slices"
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

// window is one update window of one segment: its speed reports and
// what the fold chain remembers about it.
type window struct {
	idx int64
	// speeds are the window's reports, kept sorted so the fold is a
	// pure function of the report multiset — delivery order never
	// changes an estimate.
	speeds []float64
	// mean / varV are the summary the fold consumes (Eq. 4's v and σ²),
	// recomputed over the sorted reports whenever the window gains one.
	mean, varV float64
	// after is the belief the chain held right after folding this
	// window. Meaningful only inside the folded prefix.
	after Estimate
}

// summarise recomputes the window's (mean, var) from its sorted
// reports: one Welford pass in ascending order, so the summary is the
// same bits whenever the multiset is the same.
func (w *window) summarise() {
	var acc stats.Accumulator
	for _, v := range w.speeds {
		acc.Add(v)
	}
	w.mean, w.varV = acc.Mean(), acc.Var()
	if acc.N() < 2 || w.varV <= 0 {
		w.varV = DefaultSingleReportVar
	}
}

// segState is the per-segment estimator state: the fused historic belief
// plus the retained update windows it was folded from.
//
// Invariant: the folded prefix is exactly the windows with
// idx < foldedIdx. Each of them remembers the belief the chain held
// right after it (base for the link before the first), and hist is the
// last one's — so hist is always the fold of base through every
// retained window below foldedIdx, in ascending order.
type segState struct {
	hist Estimate
	// base / baseIdx checkpoint the belief at the last Compact: windows
	// below baseIdx have been discarded, so the chain starts at base.
	base    Estimate
	baseIdx int64
	// foldedIdx is the exclusive upper window index already folded into
	// hist. Always >= baseIdx.
	foldedIdx int64
	// wins holds the retained windows, ascending by idx.
	wins []window
}

// Estimator maintains the per-segment traffic estimates: observations
// accumulate into periodic update windows, and completed windows are
// folded into the Bayesian belief (Eq. 4) in window order.
//
// Folding is deterministic in the *set* of observations, not their
// arrival order: reports are bucketed by their own timestamps, each
// window's reports are kept sorted, and a report arriving for an
// already-folded window refolds the segment's chain from that window
// on (refoldLocked) to exactly what a fold from scratch yields. Two
// runs that deliver the same observations — in any order, with any
// interleaving of Advance calls — therefore produce byte-identical
// estimates, which is what lets the chaos harness assert that
// duplicated and reordered uploads cannot corrupt the traffic map.
// Safe for concurrent use.
//
// Reads never take the mutex: every mutator settles the fold eagerly
// and hands the beliefs it moved to publishLocked, which, when any of
// them differs from the published one, swaps in a fresh immutable
// Snapshot through an atomic pointer. Because the fold is a pure
// function of the report multiset and the watermark — and only
// mutators move either — settling eagerly at mutation time yields
// exactly the estimates the previous read-time settle produced.
type Estimator struct {
	mu        sync.Mutex
	model     Model
	periodS   float64
	driftPerS float64
	segs      map[road.SegmentID]*segState //lint:guardedby mu
	// watermarkIdx is the exclusive upper window index due for folding:
	// windows below it are complete. It advances with observation and
	// Advance timestamps and never retreats.
	watermarkIdx int64  //lint:guardedby mu
	counts       Counts //lint:guardedby mu
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
	advanced := idx > e.watermarkIdx
	if advanced {
		e.watermarkIdx = idx
	}
	moved := make(map[road.SegmentID]Estimate, len(obs.Segments))
	for _, sid := range obs.Segments {
		st := e.segs[sid]
		if st == nil {
			st = &segState{}
			e.segs[sid] = st
		}
		if idx < st.baseIdx {
			// The window was compacted away; the report arrived too
			// late to be honored.
			e.counts.LateDropped++
			continue
		}
		at := e.insertLocked(st, idx, speed)
		changed := idx < st.foldedIdx && e.refoldLocked(st, at)
		if e.settleLocked(st) || changed {
			moved[sid] = st.hist
		}
	}
	if advanced {
		e.settleAllLocked(moved)
	}
	e.publishLocked(moved)
	return nil
}

// insertLocked adds one report to st's window idx, opening the window
// when this is its first report, and returns the window's position in
// st.wins.
func (e *Estimator) insertLocked(st *segState, idx int64, speed float64) int {
	at := sort.Search(len(st.wins), func(i int) bool { return st.wins[i].idx >= idx })
	if at == len(st.wins) || st.wins[at].idx != idx {
		st.wins = slices.Insert(st.wins, at, window{idx: idx})
		e.counts.Windows++
	}
	w := &st.wins[at]
	w.speeds = slices.Insert(w.speeds, sort.SearchFloat64s(w.speeds, speed), speed)
	w.summarise()
	return at
}

// Advance moves the fold watermark to the given time and folds completed
// windows. Call it from the clock driver.
func (e *Estimator) Advance(nowS float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if idx := e.windowOf(nowS); idx > e.watermarkIdx {
		e.watermarkIdx = idx
	}
	moved := make(map[road.SegmentID]Estimate)
	e.settleAllLocked(moved)
	e.publishLocked(moved)
}

// foldWindow is one link of the chain: the belief prev, aged to the
// window's end boundary, fused with the window's summary (Eq. 4). A
// window folds at its own end regardless of when the fold runs, so a
// link is a pure function of (prev, the window's report multiset).
func (e *Estimator) foldWindow(prev Estimate, w *window) Estimate {
	endS := float64(w.idx+1) * e.periodS
	return fuseAt(Inflate(prev, endS, e.driftPerS), w.mean, w.varV, endS)
}

// refoldLocked repairs the folded prefix after the window at position
// at — inside it — gained a report: the chain is refolded from that
// window forward, seeded by the belief remembered just before it, and
// stops the moment a recomputed belief equals the remembered one. Every
// later link is a pure function of that value and of windows that did
// not change, so the rest of the chain, and hist, already hold what a
// fold from base would produce. A report that opened the window never
// stops early — it shifts Reports on every later link — and refolds to
// the end. Reports whether hist changed.
func (e *Estimator) refoldLocked(st *segState, at int) bool {
	belief := st.base
	if at > 0 {
		belief = st.wins[at-1].after
	}
	for i := at; i < len(st.wins) && st.wins[i].idx < st.foldedIdx; i++ {
		w := &st.wins[i]
		belief = e.foldWindow(belief, w)
		e.counts.WindowFolds++
		if belief == w.after {
			return false
		}
		w.after = belief
	}
	st.hist = belief
	return true
}

// settleLocked extends the folded prefix to the watermark: every
// complete unfolded window is folded in ascending order, each
// remembering the belief it produced. The result depends only on the
// report multiset and the watermark. Reports whether hist changed.
func (e *Estimator) settleLocked(st *segState) bool {
	if st.foldedIdx >= e.watermarkIdx {
		return false
	}
	i := len(st.wins)
	for i > 0 && st.wins[i-1].idx >= st.foldedIdx {
		i--
	}
	folded := false
	for ; i < len(st.wins) && st.wins[i].idx < e.watermarkIdx; i++ {
		st.hist = e.foldWindow(st.hist, &st.wins[i])
		st.wins[i].after = st.hist
		e.counts.WindowFolds++
		folded = true
	}
	st.foldedIdx = e.watermarkIdx
	return folded
}

// settleAllLocked settles every segment, recording in moved the belief
// of each one that changed. moved is a set keyed by segment, so the map
// iteration order here reaches nothing.
func (e *Estimator) settleAllLocked(moved map[road.SegmentID]Estimate) {
	for sid, st := range e.segs {
		if e.settleLocked(st) {
			moved[sid] = st.hist
		}
	}
}

// publishLocked is the one publish point: every mutator ends here with
// the beliefs it moved. patchSnapshot compares them with the published
// ones, so a refold that landed on identical values publishes nothing
// and the version moves exactly once per mutation that changes a
// published value.
func (e *Estimator) publishLocked(moved map[road.SegmentID]Estimate) {
	prev := e.snap.Load()
	if next := patchSnapshot(prev, moved); next != prev {
		e.snap.Store(next)
	}
}

// Compact checkpoints every segment's belief and discards the folded
// windows behind it, bounding the estimator's memory on long
// deployments. Reports arriving for a compacted window afterwards are
// dropped and counted in Counts — compaction trades unbounded reorder
// tolerance for bounded state, so run it no more often than the
// staleness the upload path can produce.
func (e *Estimator) Compact() {
	e.mu.Lock()
	defer e.mu.Unlock()
	moved := make(map[road.SegmentID]Estimate)
	e.settleAllLocked(moved)
	for _, st := range e.segs {
		st.base, st.baseIdx = st.hist, st.foldedIdx
		keep := sort.Search(len(st.wins), func(i int) bool { return st.wins[i].idx >= st.baseIdx })
		e.counts.Windows -= keep
		// A fresh slice, so the discarded windows' memory is released.
		st.wins = slices.Clone(st.wins[keep:])
	}
	e.publishLocked(moved)
}

// Counts are the estimator's size and work counters.
type Counts struct {
	// Windows is the number of update windows retained across all
	// segments: what grows until Compact runs.
	Windows int
	// WindowFolds counts single-window folds (one Eq. 4 fusion each)
	// run since construction, by any mutator or by ImportState.
	WindowFolds int
	// LateDropped counts reports that arrived after their window was
	// compacted away and could not be folded.
	LateDropped int
}

// Counts returns the current counters.
func (e *Estimator) Counts() Counts {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counts
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
