package traffic

import (
	"maps"
	"reflect"
	"sync"
	"testing"

	"busprobe/internal/road"
)

func est(speed float64, reports int) Estimate {
	return Estimate{SpeedKmh: speed, Var: 4, Reports: reports, UpdatedS: 100}
}

func TestNextSnapshotDiff(t *testing.T) {
	s0 := EmptySnapshot()
	if s0.Version != 0 || len(s0.Estimates) != 0 {
		t.Fatalf("empty snapshot: version %d, %d estimates", s0.Version, len(s0.Estimates))
	}

	// First publication: both segments are new at version 1.
	s1 := NextSnapshot(s0, map[road.SegmentID]Estimate{1: est(30, 1), 2: est(40, 1)})
	if s1 == s0 {
		t.Fatal("first publication returned prev")
	}
	if s1.Version != 1 {
		t.Fatalf("version = %d, want 1", s1.Version)
	}
	if s1.ChangedAt[1] != 1 || s1.ChangedAt[2] != 1 {
		t.Fatalf("ChangedAt = %v", s1.ChangedAt)
	}

	// Identical map: no bump, prev returned untouched.
	same := NextSnapshot(s1, map[road.SegmentID]Estimate{1: est(30, 1), 2: est(40, 1)})
	if same != s1 {
		t.Fatalf("value-identical map bumped version to %d", same.Version)
	}

	// One segment moves: only its ChangedAt advances.
	s2 := NextSnapshot(s1, map[road.SegmentID]Estimate{1: est(30, 1), 2: est(35, 2)})
	if s2.Version != 2 {
		t.Fatalf("version = %d, want 2", s2.Version)
	}
	if s2.ChangedAt[1] != 1 {
		t.Errorf("unchanged segment's ChangedAt moved to %d", s2.ChangedAt[1])
	}
	if s2.ChangedAt[2] != 2 {
		t.Errorf("changed segment's ChangedAt = %d, want 2", s2.ChangedAt[2])
	}
}

func TestNextSnapshotRemovalAndReappearance(t *testing.T) {
	s0 := EmptySnapshot()
	s1 := NextSnapshot(s0, map[road.SegmentID]Estimate{1: est(30, 1), 2: est(40, 1)})

	// Segment 2 disappears (a merged view losing a shard).
	s2 := NextSnapshot(s1, map[road.SegmentID]Estimate{1: est(30, 1)})
	if s2.Version != 2 {
		t.Fatalf("removal did not bump: version %d", s2.Version)
	}
	if s2.RemovedAt[2] != 2 {
		t.Fatalf("RemovedAt = %v", s2.RemovedAt)
	}
	if len(s1.RemovedAt) != 0 {
		t.Fatal("removal mutated the previous snapshot's RemovedAt")
	}

	// It reappears: the removal record must clear, and the segment is a
	// fresh change.
	s3 := NextSnapshot(s2, map[road.SegmentID]Estimate{1: est(30, 1), 2: est(41, 2)})
	if s3.Version != 3 {
		t.Fatalf("version = %d, want 3", s3.Version)
	}
	if _, ok := s3.RemovedAt[2]; ok {
		t.Fatal("reappearing segment still recorded as removed")
	}
	if s3.ChangedAt[2] != 3 {
		t.Errorf("reappearing segment's ChangedAt = %d, want 3", s3.ChangedAt[2])
	}
	if s2.RemovedAt[2] != 2 {
		t.Fatal("reappearance mutated the previous snapshot's RemovedAt")
	}
}

func TestDeltaSince(t *testing.T) {
	s := EmptySnapshot()
	s = NextSnapshot(s, map[road.SegmentID]Estimate{3: est(30, 1), 1: est(40, 1)})                // v1
	s = NextSnapshot(s, map[road.SegmentID]Estimate{3: est(30, 1), 1: est(40, 1), 2: est(50, 1)}) // v2
	s = NextSnapshot(s, map[road.SegmentID]Estimate{3: est(31, 2), 2: est(50, 1)})                // v3: 3 changes, 1 removed

	changed, removed := s.DeltaSince(0)
	if want := []road.SegmentID{2, 3}; !reflect.DeepEqual(changed, want) {
		t.Errorf("DeltaSince(0) changed = %v, want %v", changed, want)
	}
	if want := []road.SegmentID{1}; !reflect.DeepEqual(removed, want) {
		t.Errorf("DeltaSince(0) removed = %v, want %v", removed, want)
	}

	changed, removed = s.DeltaSince(2)
	if want := []road.SegmentID{3}; !reflect.DeepEqual(changed, want) {
		t.Errorf("DeltaSince(2) changed = %v, want %v", changed, want)
	}
	if want := []road.SegmentID{1}; !reflect.DeepEqual(removed, want) {
		t.Errorf("DeltaSince(2) removed = %v, want %v", removed, want)
	}

	changed, removed = s.DeltaSince(s.Version)
	if len(changed) != 0 || len(removed) != 0 {
		t.Errorf("DeltaSince(current) = %v / %v, want empty", changed, removed)
	}
}

func TestEstimatorPublishesVersionedSnapshots(t *testing.T) {
	e, err := NewEstimator(DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := e.View().Version; v != 0 {
		t.Fatalf("fresh estimator at version %d", v)
	}

	obs := Observation{Segments: []road.SegmentID{7}, LengthM: 500, FreeKmh: 50, BTTSeconds: 80, TimeS: 100}
	if err := foldPublish(e, obs); err != nil {
		t.Fatal(err)
	}
	// The observation sits in an open window: nothing folded, nothing
	// published.
	if v := e.View().Version; v != 0 {
		t.Fatalf("open-window observation published version %d", v)
	}

	e.Advance(600)
	snap := e.View()
	if snap.Version == 0 {
		t.Fatal("fold did not publish")
	}
	if _, ok := snap.Estimates[7]; !ok {
		t.Fatal("published snapshot missing the folded segment")
	}
	if got, ok := e.Get(7); !ok || got != snap.Estimates[7] {
		t.Fatalf("Get = %v/%v, want snapshot value", got, ok)
	}

	// Advancing with nothing pending publishes nothing new.
	before := e.View()
	e.Advance(1200)
	if after := e.View(); after.Version != before.Version {
		t.Fatalf("idle Advance bumped version %d -> %d", before.Version, after.Version)
	}
}

func TestEstimatorSnapshotIsDefensiveCopy(t *testing.T) {
	e, err := NewEstimator(DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	obs := Observation{Segments: []road.SegmentID{7}, LengthM: 500, FreeKmh: 50, BTTSeconds: 80, TimeS: 100}
	if err := foldPublish(e, obs); err != nil {
		t.Fatal(err)
	}
	e.Advance(600)

	m := e.Snapshot()
	m[7] = Estimate{SpeedKmh: -1}
	m[999] = Estimate{SpeedKmh: -2}
	if got, _ := e.Get(7); got.SpeedKmh == -1 {
		t.Fatal("mutating Snapshot() leaked into the estimator")
	}
	if _, ok := e.Get(999); ok {
		t.Fatal("inserted key leaked into the estimator")
	}
	if len(e.View().Estimates) != 1 {
		t.Fatalf("published map grew to %d entries", len(e.View().Estimates))
	}
}

func TestEstimatorConcurrentReadersSeeMonotoneVersions(t *testing.T) {
	e, err := NewEstimator(DefaultModel(), 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := e.View()
				if snap.Version < last {
					t.Errorf("version regressed %d -> %d", last, snap.Version)
					return
				}
				last = snap.Version
				// A torn snapshot would show a version bump with a nil map.
				if snap.Version > 0 && snap.Estimates == nil {
					t.Error("versioned snapshot with nil estimates")
					return
				}
				e.Get(7)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		obs := Observation{
			Segments: []road.SegmentID{road.SegmentID(i % 5)},
			LengthM:  500, FreeKmh: 50,
			BTTSeconds: 60 + float64(i%30),
			TimeS:      float64(i) * 40,
		}
		if err := foldPublish(e, obs); err != nil {
			t.Fatal(err)
		}
	}
	e.Advance(20000)
	close(stop)
	wg.Wait()
	if e.View().Version == 0 {
		t.Fatal("campaign published nothing; concurrency check was vacuous")
	}
}

// TestPublishCarriesForward pins the clone-and-patch publish: a
// snapshot a reader still holds shares no map with its successors,
// segments a fold did not touch keep their estimate and their change
// version, and concurrent readers only ever see versions move forward
// while concurrent writers fold groups and publish.
func TestPublishCarriesForward(t *testing.T) {
	e, err := NewEstimator(DefaultModel(), DefaultPeriodS, DefaultDriftVarPerS)
	if err != nil {
		t.Fatal(err)
	}
	report := func(sid road.SegmentID, btt, atS float64) {
		t.Helper()
		o := Observation{Segments: []road.SegmentID{sid}, LengthM: 500, FreeKmh: 50, BTTSeconds: btt, TimeS: atS}
		if err := foldPublish(e, o); err != nil {
			t.Fatal(err)
		}
	}
	for sid := road.SegmentID(0); sid < 10; sid++ {
		for w := 0; w < 20; w++ {
			report(sid, 60+float64(w), float64(w)*DefaultPeriodS+10)
		}
	}
	e.Advance(20 * DefaultPeriodS)

	held := e.View()
	if len(held.Estimates) != 10 {
		t.Fatalf("held snapshot covers %d segments, want 10", len(held.Estimates))
	}
	copyOf := &Snapshot{
		Version:   held.Version,
		Estimates: held.CloneEstimates(),
		ChangedAt: maps.Clone(held.ChangedAt),
		RemovedAt: maps.Clone(held.RemovedAt),
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := e.View()
				if snap.Version < last {
					t.Errorf("version regressed %d -> %d", last, snap.Version)
					return
				}
				last = snap.Version
				if len(snap.Estimates) != len(snap.ChangedAt) {
					t.Errorf("version %d: %d estimates but %d change marks", snap.Version, len(snap.Estimates), len(snap.ChangedAt))
					return
				}
			}
		}()
	}
	// 1 000 further folds, late and fresh, on segments 0–4 only: four
	// writers, each folding its share in groups of five and publishing
	// after every group.
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			var group []Observation
			for i := w; i < 1000; i += 4 {
				group = append(group, Observation{
					Segments: []road.SegmentID{road.SegmentID(i % 5)}, LengthM: 500, FreeKmh: 50,
					BTTSeconds: 50 + float64(i%90), TimeS: float64(i%25)*DefaultPeriodS + float64(i%200),
				})
				if len(group) == 5 {
					if n, err := e.Fold(group); err != nil || n != len(group) {
						t.Errorf("Fold of %d folded %d: %v", len(group), n, err)
						return
					}
					e.Publish()
					group = group[:0]
				}
			}
		}(w)
	}
	writers.Wait()
	if n := e.Counts().Pending; n != 0 {
		t.Errorf("%d segments pending after every writer published", n)
	}
	e.Advance(26 * DefaultPeriodS)
	close(stop)
	wg.Wait()

	now := e.View()
	if now.Version <= held.Version {
		t.Fatalf("1000 folds published nothing (version %d); the test is vacuous", now.Version)
	}
	if held.Version != copyOf.Version || !reflect.DeepEqual(held.Estimates, copyOf.Estimates) ||
		!reflect.DeepEqual(held.ChangedAt, copyOf.ChangedAt) || !reflect.DeepEqual(held.RemovedAt, copyOf.RemovedAt) {
		t.Fatal("a held snapshot changed under later publishes: a successor aliases its maps")
	}
	for sid := road.SegmentID(0); sid < 10; sid++ {
		touched := sid < 5
		if moved := now.Estimates[sid] != held.Estimates[sid]; moved != touched {
			t.Errorf("segment %d: estimate moved = %v, want %v", sid, moved, touched)
		}
		if bumped := now.ChangedAt[sid] > held.Version; bumped != touched {
			t.Errorf("segment %d: ChangedAt %d (held version %d), bumped = %v, want %v",
				sid, now.ChangedAt[sid], held.Version, bumped, touched)
		}
	}
}
