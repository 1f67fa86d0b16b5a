package traffic

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"busprobe/internal/road"
)

// stateObs builds a deterministic pseudo-random observation stream
// touching a handful of segments across several windows.
func stateObs(n int, seed int64) []Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Observation, 0, n)
	for i := 0; i < n; i++ {
		segs := []road.SegmentID{road.SegmentID(rng.Intn(6))}
		if rng.Intn(3) == 0 {
			segs = append(segs, road.SegmentID(6+rng.Intn(3)))
		}
		out = append(out, Observation{
			Segments:   segs,
			LengthM:    300 + rng.Float64()*500,
			FreeKmh:    40 + rng.Float64()*20,
			BTTSeconds: 40 + rng.Float64()*120,
			TimeS:      rng.Float64() * 8 * DefaultPeriodS,
		})
	}
	return out
}

func feed(t *testing.T, e *Estimator, obs []Observation) {
	t.Helper()
	for _, o := range obs {
		if err := foldPublish(e, o); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStateRoundTripExact: export → JSON → import → export must be
// byte-identical, and the imported estimator must publish the same
// snapshot (same version, same estimates) as the original.
func TestStateRoundTripExact(t *testing.T) {
	e, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, stateObs(400, 1))
	e.Compact() // exercise base/baseIdx in the export
	feed(t, e, stateObs(200, 2))
	st := e.ExportState()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded State
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	e2, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.ImportState(&decoded); err != nil {
		t.Fatal(err)
	}
	blob2, err := json.Marshal(e2.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("state round-trip not byte-identical:\n%s\nvs\n%s", blob, blob2)
	}
	s1, s2 := e.View(), e2.View()
	if s1.Version != s2.Version {
		t.Fatalf("snapshot version %d != %d after import", s1.Version, s2.Version)
	}
	if !reflect.DeepEqual(s1.Estimates, s2.Estimates) {
		t.Fatal("snapshot estimates differ after import")
	}
	if !reflect.DeepEqual(s1.ChangedAt, s2.ChangedAt) || !reflect.DeepEqual(s1.RemovedAt, s2.RemovedAt) {
		t.Fatal("snapshot version marks differ after import")
	}
}

// TestStateContinuationEquivalence is the property the whole durable
// store rests on: export mid-stream, import into a fresh estimator,
// feed the remaining observations to both — the continuation must
// produce identical estimates and an identical published version to
// the uninterrupted run.
func TestStateContinuationEquivalence(t *testing.T) {
	for _, cut := range []int{0, 1, 137, 350, 599, 600} {
		obs := stateObs(600, 7)
		full, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, full, obs)
		full.Advance(9 * DefaultPeriodS)

		first, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, first, obs[:cut])
		st := first.ExportState()
		resumed, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.ImportState(st); err != nil {
			t.Fatal(err)
		}
		feed(t, resumed, obs[cut:])
		resumed.Advance(9 * DefaultPeriodS)

		a, b := full.View(), resumed.View()
		if !reflect.DeepEqual(a.Estimates, b.Estimates) {
			t.Fatalf("cut %d: estimates diverge after export/import continuation", cut)
		}
		if a.Version != b.Version {
			t.Fatalf("cut %d: version %d != %d", cut, a.Version, b.Version)
		}
	}
}

func TestStateImportRejectsMalformed(t *testing.T) {
	e, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ImportState(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if err := e.ImportState(&State{Segments: []SegmentState{{Segment: 1}, {Segment: 1}}}); err == nil {
		t.Fatal("duplicate segment accepted")
	}
	if err := e.ImportState(&State{Segments: []SegmentState{{Segment: 1, BaseIdx: 5, FoldedIdx: 2}}}); err == nil {
		t.Fatal("folded < base accepted")
	}
	bad := &State{Segments: []SegmentState{{Segment: 1, Windows: []WindowState{{Idx: 0, Speeds: []float64{30, 10}}}}}}
	if err := e.ImportState(bad); err == nil {
		t.Fatal("unsorted speeds accepted")
	}
	dupw := &State{Segments: []SegmentState{{Segment: 1, Windows: []WindowState{{Idx: 0}, {Idx: 0}}}}}
	if err := e.ImportState(dupw); err == nil {
		t.Fatal("duplicate window accepted")
	}
	unordered := &State{Segments: []SegmentState{{Segment: 1, Windows: []WindowState{{Idx: 3}, {Idx: 1}}}}}
	if err := e.ImportState(unordered); err == nil {
		t.Fatal("descending windows accepted")
	}
	stale := &State{Segments: []SegmentState{{Segment: 1, BaseIdx: 4, FoldedIdx: 4, Windows: []WindowState{{Idx: 2}}}}}
	if err := e.ImportState(stale); err == nil {
		t.Fatal("window below the compaction base accepted")
	}

	// A belief that is not the fold of the windows it claims to
	// summarise: off by one ulp is enough, and a refused import leaves
	// the estimator as it was.
	src, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, src, stateObs(300, 3))
	good := src.ExportState()
	if err := e.ImportState(good); err != nil {
		t.Fatalf("untampered state refused: %v", err)
	}
	before := e.View()
	tampered := src.ExportState()
	h := &tampered.Segments[2].Hist
	h.SpeedKmh = math.Nextafter(h.SpeedKmh, math.Inf(1))
	if err := e.ImportState(tampered); err == nil {
		t.Fatal("hist disagreeing with its windows accepted")
	}
	if e.View() != before {
		t.Fatal("refused import replaced the published snapshot")
	}
}

// TestStateImportRejectsInconsistentMarks: the version marks are what
// DeltaSince and every watch client trust, so a state whose marks
// disagree with its own map is refused, and the refusal leaves the
// estimator as it was.
func TestStateImportRejectsInconsistentMarks(t *testing.T) {
	src, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, src, stateObs(300, 4))
	if good := src.ExportState(); len(good.ChangedAt) < 3 || good.SnapVersion < 2 {
		t.Fatalf("fixture too small: %d marks at version %d", len(good.ChangedAt), good.SnapVersion)
	}
	uncovered := road.SegmentID(999)
	for _, tc := range []struct {
		name   string
		tamper func(st *State)
	}{
		{"covered segment without a change mark", func(st *State) { st.ChangedAt = st.ChangedAt[1:] }},
		{"change mark on an uncovered segment", func(st *State) {
			st.ChangedAt = append(st.ChangedAt, VersionMark{Segment: uncovered, Version: 1})
		}},
		{"change mark above the snapshot version", func(st *State) { st.ChangedAt[0].Version = st.SnapVersion + 1 }},
		{"change mark at version 0", func(st *State) { st.ChangedAt[0].Version = 0 }},
		{"segment marked twice", func(st *State) { st.ChangedAt = append(st.ChangedAt, st.ChangedAt[0]) }},
		{"covered segment marked removed", func(st *State) {
			st.RemovedAt = []VersionMark{{Segment: st.ChangedAt[1].Segment, Version: 1}}
		}},
		{"removal mark above the snapshot version", func(st *State) {
			st.RemovedAt = []VersionMark{{Segment: uncovered, Version: st.SnapVersion + 1}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
			if err != nil {
				t.Fatal(err)
			}
			before := e.View()
			st := src.ExportState()
			tc.tamper(st)
			if err := e.ImportState(st); err == nil {
				t.Fatal("inconsistent marks accepted")
			}
			if e.View() != before {
				t.Fatal("refused import replaced the published snapshot")
			}
		})
	}
	// An uncovered segment's removal inside the version range is a
	// consistent mark (a merged view's kind), and the untampered state
	// imports.
	st := src.ExportState()
	st.RemovedAt = []VersionMark{{Segment: uncovered, Version: st.SnapVersion}}
	e, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ImportState(st); err != nil {
		t.Fatalf("consistent marks refused: %v", err)
	}
}
