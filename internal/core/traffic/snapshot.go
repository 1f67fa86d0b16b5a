package traffic

import (
	"maps"
	"sort"
	"sync"

	"busprobe/internal/road"
)

// Snapshot is one immutable, versioned traffic map. Publishers build a
// fresh Snapshot on every state change and swap it in atomically;
// readers load the pointer and walk the maps without locking. All three
// maps are read-only after publication — a caller that needs a mutable
// map takes CloneEstimates.
//
// Version is a publisher-local sequence number: it starts at 0 (empty
// map), bumps by exactly one per published change, and never moves
// without a value-visible difference in Estimates. The per-segment
// maps ChangedAt/RemovedAt record the version at which each segment
// last changed or disappeared, which is what lets DeltaSince answer
// "what moved since version V" without retaining any snapshot history.
//
// The one write a published snapshot accepts is Rendered's memo: the
// serving tier's byte form of this version, built by its first reader.
// It lives and dies with the snapshot, so there is nothing to evict or
// invalidate. The sync.Once also makes go vet's copylocks refuse a
// Snapshot copied by value, which would fork the memo.
type Snapshot struct {
	// Version is the publication sequence number (0 = empty initial map).
	Version uint64
	// Estimates maps every covered segment to its fused estimate.
	// Read-only.
	Estimates map[road.SegmentID]Estimate
	// ChangedAt maps every covered segment to the version at which its
	// estimate last changed. Read-only.
	ChangedAt map[road.SegmentID]uint64
	// RemovedAt maps segments no longer covered to the version at which
	// they disappeared (a merged view loses a shard's segments when the
	// shard dies; a single estimator never removes any). Read-only.
	RemovedAt map[road.SegmentID]uint64

	renderOnce sync.Once
	rendered   []byte
}

// EmptySnapshot returns the version-0 empty map every publisher seeds
// its pointer with.
func EmptySnapshot() *Snapshot {
	return &Snapshot{
		Estimates: map[road.SegmentID]Estimate{},
		ChangedAt: map[road.SegmentID]uint64{},
		RemovedAt: map[road.SegmentID]uint64{},
	}
}

// NextSnapshot builds the successor of prev holding estimates, diffing
// the two maps to maintain the per-segment change and removal versions.
// When estimates is value-identical to prev's map it returns prev
// itself — no version bump — so publishers can call it unconditionally
// and store the result only when it differs. The estimates map is owned
// by the returned snapshot and must not be mutated afterwards.
func NextSnapshot(prev *Snapshot, estimates map[road.SegmentID]Estimate) *Snapshot {
	ver := prev.Version + 1
	changed := false
	ca := make(map[road.SegmentID]uint64, len(estimates))
	for sid, est := range estimates {
		if old, ok := prev.Estimates[sid]; ok && old == est {
			ca[sid] = prev.ChangedAt[sid]
		} else {
			ca[sid] = ver
			changed = true
		}
	}
	ra := prev.RemovedAt
	raOwned := false
	ownRA := func() {
		if !raOwned {
			ra = make(map[road.SegmentID]uint64, len(prev.RemovedAt))
			for sid, v := range prev.RemovedAt {
				ra[sid] = v
			}
			raOwned = true
		}
	}
	for sid := range prev.Estimates {
		if _, ok := estimates[sid]; !ok {
			ownRA()
			ra[sid] = ver
			changed = true
		}
	}
	for sid := range estimates {
		if _, ok := ra[sid]; ok {
			ownRA()
			delete(ra, sid)
		}
	}
	if !changed {
		return prev
	}
	return &Snapshot{Version: ver, Estimates: estimates, ChangedAt: ca, RemovedAt: ra}
}

// patchSnapshot builds the successor of prev in which the segments of
// moved hold the given estimates and every other entry — estimate and
// change version alike — is carried forward from a clone of prev's
// maps: the cost is one map copy plus the entries that moved, not a
// rebuild and a diff of the whole map. Entries of moved equal to prev's
// are not changes; when none differs it returns prev itself, no version
// bump, like NextSnapshot. prev.RemovedAt is shared as is: the caller
// is a single estimator, which never removes a segment.
func patchSnapshot(prev *Snapshot, moved map[road.SegmentID]Estimate) *Snapshot {
	var next *Snapshot
	for sid, est := range moved {
		if old, ok := prev.Estimates[sid]; ok && old == est {
			continue
		}
		if next == nil {
			next = &Snapshot{
				Version:   prev.Version + 1,
				Estimates: maps.Clone(prev.Estimates),
				ChangedAt: maps.Clone(prev.ChangedAt),
				RemovedAt: prev.RemovedAt,
			}
		}
		next.Estimates[sid] = est
		next.ChangedAt[sid] = next.Version
	}
	if next == nil {
		return prev
	}
	return next
}

// Get returns one segment's estimate, if the snapshot holds one. It
// makes *Snapshot an arrival.TrafficSource, so a prediction run reads
// every segment from one version of the map.
func (s *Snapshot) Get(sid road.SegmentID) (Estimate, bool) {
	est, ok := s.Estimates[sid]
	return est, ok
}

// Rendered returns the snapshot's serialised form, calling render for
// it at most once per snapshot however many readers arrive together;
// later callers get the first call's bytes and their render is never
// run. The bytes are opaque here — a process hands every snapshot the
// same pure function of the snapshot's maps — and shared: callers must
// not write to them. Nothing on the publish path calls this, so a
// version nobody reads is never rendered.
func (s *Snapshot) Rendered(render func(*Snapshot) []byte) []byte {
	s.renderOnce.Do(func() { s.rendered = render(s) })
	return s.rendered
}

// CloneEstimates returns a mutable copy of the estimate map.
func (s *Snapshot) CloneEstimates() map[road.SegmentID]Estimate {
	out := make(map[road.SegmentID]Estimate, len(s.Estimates))
	for sid, est := range s.Estimates {
		out[sid] = est
	}
	return out
}

// DeltaSince lists the segments whose estimates changed after version
// since and the segments removed after it, both ascending. since = 0
// yields the full map as changes; since >= Version yields two empty
// lists.
func (s *Snapshot) DeltaSince(since uint64) (changed, removed []road.SegmentID) {
	for sid, v := range s.ChangedAt {
		if v > since {
			changed = append(changed, sid)
		}
	}
	for sid, v := range s.RemovedAt {
		if v > since {
			removed = append(removed, sid)
		}
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	return changed, removed
}
