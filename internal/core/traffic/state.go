package traffic

import (
	"fmt"
	"sort"

	"busprobe/internal/road"
)

// State is the estimator's complete durable state, shaped for JSON.
// Everything a restarted estimator needs to continue producing
// byte-identical estimates is here: the fold watermark, every
// segment's belief and retained window reports, and the published
// snapshot's version bookkeeping (so watch clients see a monotone
// version across the restart). Configuration — the transit model, the
// update period, the drift rate — is not state: the server always runs
// the paper's constants (DefaultModel, DefaultPeriodS,
// DefaultDriftVarPerS), so a served snapshot always imports into an
// estimator configured like the one that wrote it. Importing into a
// differently configured estimator is possible only in offline code
// that builds one by hand.
//
// All slices are sorted (segments by ID, windows by index, speeds
// ascending as the estimator keeps them), so exporting twice from the
// same estimator yields byte-identical JSON.
type State struct {
	// WatermarkIdx is the exclusive upper window index already due for
	// folding.
	WatermarkIdx int64 `json:"watermarkIdx"`
	// LateDropped counts reports that arrived after compaction
	// discarded their window.
	LateDropped int `json:"lateDropped,omitempty"`
	// Segments is the per-segment belief + window state, ascending by
	// segment ID.
	Segments []SegmentState `json:"segments"`
	// SnapVersion is the published snapshot's version at export.
	SnapVersion uint64 `json:"snapVersion"`
	// ChangedAt/RemovedAt restore the snapshot's per-segment version
	// marks, ascending by segment ID.
	ChangedAt []VersionMark `json:"changedAt,omitempty"`
	RemovedAt []VersionMark `json:"removedAt,omitempty"`
}

// SegmentState is one road segment's estimator state.
type SegmentState struct {
	Segment road.SegmentID `json:"segment"`
	// Hist is the fused belief as of the watermark.
	Hist Estimate `json:"hist"`
	// Base / BaseIdx checkpoint the belief at the last Compact.
	Base    Estimate `json:"base"`
	BaseIdx int64    `json:"baseIdx"`
	// FoldedIdx is the exclusive upper window index folded into Hist.
	FoldedIdx int64 `json:"foldedIdx"`
	// Windows are the retained report sets, ascending by index.
	Windows []WindowState `json:"windows,omitempty"`
}

// WindowState is one update window's speed reports, sorted ascending.
type WindowState struct {
	Idx    int64     `json:"idx"`
	Speeds []float64 `json:"speeds"`
}

// VersionMark records the snapshot version at which one segment last
// changed (or was removed).
type VersionMark struct {
	Segment road.SegmentID `json:"segment"`
	Version uint64         `json:"version"`
}

// ExportState returns the estimator's durable state. The export is a
// deep copy — the estimator keeps running and the caller owns the
// result. What a segment remembers beyond its reports (each window's
// summary and the belief after it) is derived and deliberately not
// exported: ImportState recomputes it, so State is the same schema
// whichever build wrote it.
func (e *Estimator) ExportState() *State {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Every mutator leaves the fold settled; only a state imported with
	// complete windows still unfolded has anything to do here.
	moved := make(map[road.SegmentID]Estimate)
	e.settleAllLocked(moved)
	e.publishLocked(moved)
	st := &State{
		WatermarkIdx: e.watermarkIdx,
		LateDropped:  e.counts.LateDropped,
		Segments:     make([]SegmentState, 0, len(e.segs)),
	}
	for sid, seg := range e.segs {
		ss := SegmentState{
			Segment:   sid,
			Hist:      seg.hist,
			Base:      seg.base,
			BaseIdx:   seg.baseIdx,
			FoldedIdx: seg.foldedIdx,
			Windows:   make([]WindowState, len(seg.wins)),
		}
		for i, w := range seg.wins {
			ss.Windows[i] = WindowState{Idx: w.idx, Speeds: append([]float64(nil), w.speeds...)}
		}
		st.Segments = append(st.Segments, ss)
	}
	sort.Slice(st.Segments, func(i, j int) bool { return st.Segments[i].Segment < st.Segments[j].Segment })
	snap := e.snap.Load()
	st.SnapVersion = snap.Version
	st.ChangedAt = marksOf(snap.ChangedAt)
	st.RemovedAt = marksOf(snap.RemovedAt)
	return st
}

// ImportState replaces the estimator's state wholesale with a
// previously exported one and republishes the snapshot at its exported
// version, so readers (and watch clients holding a since-version)
// observe exactly the pre-export map. Import into a freshly
// constructed estimator — importing over live state discards it.
//
// Import rebuilds what each segment remembers by folding Base through
// every window below FoldedIdx, and refuses a state whose Hist is not
// exactly where that fold lands: such a belief disagrees with the
// reports it claims to summarise, and would be served as is until some
// late report happened to refold the segment and the map jumped.
func (e *Estimator) ImportState(st *State) error {
	if st == nil {
		return fmt.Errorf("traffic: import nil state")
	}
	segs := make(map[road.SegmentID]*segState, len(st.Segments))
	windows, folds := 0, 0
	for _, ss := range st.Segments {
		if _, dup := segs[ss.Segment]; dup {
			return fmt.Errorf("traffic: import: duplicate segment %d", ss.Segment)
		}
		if ss.FoldedIdx < ss.BaseIdx {
			return fmt.Errorf("traffic: import: segment %d folded below its base", ss.Segment)
		}
		seg := &segState{
			hist:      ss.Hist,
			base:      ss.Base,
			baseIdx:   ss.BaseIdx,
			foldedIdx: ss.FoldedIdx,
			wins:      make([]window, len(ss.Windows)),
		}
		belief := ss.Base
		for i, ws := range ss.Windows {
			if ws.Idx < ss.BaseIdx {
				return fmt.Errorf("traffic: import: segment %d window %d below its base", ss.Segment, ws.Idx)
			}
			if i > 0 && ws.Idx <= ss.Windows[i-1].Idx {
				return fmt.Errorf("traffic: import: segment %d window %d duplicated or out of order", ss.Segment, ws.Idx)
			}
			if !sort.Float64sAreSorted(ws.Speeds) {
				return fmt.Errorf("traffic: import: segment %d window %d speeds unsorted", ss.Segment, ws.Idx)
			}
			w := &seg.wins[i]
			w.idx, w.speeds = ws.Idx, append([]float64(nil), ws.Speeds...)
			w.summarise()
			if w.idx < seg.foldedIdx {
				belief = e.foldWindow(belief, w)
				w.after = belief
				folds++
			}
		}
		if belief != ss.Hist {
			return fmt.Errorf("traffic: import: segment %d belief %+v is not the fold of its windows (%+v)", ss.Segment, ss.Hist, belief)
		}
		windows += len(seg.wins)
		segs[ss.Segment] = seg
	}
	estimates := make(map[road.SegmentID]Estimate, len(segs))
	for sid, seg := range segs {
		if seg.hist.Reports > 0 {
			estimates[sid] = seg.hist
		}
	}
	snap := &Snapshot{
		Version:   st.SnapVersion,
		Estimates: estimates,
		ChangedAt: marksToMap(st.ChangedAt),
		RemovedAt: marksToMap(st.RemovedAt),
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.segs = segs
	e.watermarkIdx = st.WatermarkIdx
	e.counts.Windows = windows
	e.counts.WindowFolds += folds
	e.counts.LateDropped = st.LateDropped
	e.snap.Store(snap)
	return nil
}

func marksOf(m map[road.SegmentID]uint64) []VersionMark {
	if len(m) == 0 {
		return nil
	}
	out := make([]VersionMark, 0, len(m))
	for sid, v := range m {
		out = append(out, VersionMark{Segment: sid, Version: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Segment < out[j].Segment })
	return out
}

func marksToMap(marks []VersionMark) map[road.SegmentID]uint64 {
	out := make(map[road.SegmentID]uint64, len(marks))
	for _, m := range marks {
		out[m.Segment] = m.Version
	}
	return out
}
