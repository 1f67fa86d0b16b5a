// Package traffic is the snapshotmut fixture for the writes the
// defining package is allowed. It is type-checked under that package's
// own import path, so its Snapshot is the type the analyzer guards and
// its functions are judged as that package's are: the Rendered memo
// method and the patchSnapshot constructor are clean, the same writes
// from any other function are findings.
package traffic

import (
	"maps"
	"sync"
)

// Snapshot mirrors the patched and the memo-carrying parts of the real
// type.
type Snapshot struct {
	Version   uint64
	Estimates map[int]float64
	ChangedAt map[int]uint64

	renderOnce sync.Once
	rendered   []byte
}

// Rendered is the exempt method: its write sits behind the Once.
func (s *Snapshot) Rendered(render func(*Snapshot) []byte) []byte {
	s.renderOnce.Do(func() { s.rendered = render(s) })
	return s.rendered
}

// invalidate drops the memo from outside the memo method.
func (s *Snapshot) invalidate() {
	s.rendered = nil // want `field s\.rendered of a traffic\.Snapshot assigned outside its constructor`
}

// prime fills the memo on the publish path, bypassing the Once.
func prime(s *Snapshot, body []byte) {
	s.rendered = body // want `field s\.rendered of a traffic\.Snapshot assigned outside its constructor`
}

// scribble writes into the shared bytes every reader was handed.
func scribble(s *Snapshot) {
	s.rendered[0] = ' ' // want `map owned by a traffic\.Snapshot assigned through \(s\.rendered\) outside its constructor`
}

// patchSnapshot is the exempt constructor: it clones prev's maps and
// writes the moved entries through the successor before anyone else
// holds it.
func patchSnapshot(prev *Snapshot, moved map[int]float64) *Snapshot {
	next := &Snapshot{
		Version:   prev.Version + 1,
		Estimates: maps.Clone(prev.Estimates),
		ChangedAt: maps.Clone(prev.ChangedAt),
	}
	for sid, est := range moved {
		next.Estimates[sid] = est
		next.ChangedAt[sid] = next.Version
	}
	return next
}

// patchElsewhere is the same clone-and-patch outside the constructor
// table: nothing tells the analyzer this snapshot is still private.
func patchElsewhere(prev *Snapshot, moved map[int]float64) *Snapshot {
	next := &Snapshot{
		Version:   prev.Version + 1,
		Estimates: maps.Clone(prev.Estimates),
		ChangedAt: maps.Clone(prev.ChangedAt),
	}
	for sid, est := range moved {
		next.Estimates[sid] = est          // want `map owned by a traffic\.Snapshot assigned through \(next\.Estimates\) outside its constructor`
		next.ChangedAt[sid] = next.Version // want `map owned by a traffic\.Snapshot assigned through \(next\.ChangedAt\) outside its constructor`
	}
	return next
}
