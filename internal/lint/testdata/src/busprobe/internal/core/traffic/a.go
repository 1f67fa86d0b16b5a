// Package traffic is the snapshotmut fixture for the one sanctioned
// post-publication write. It is type-checked under the defining
// package's own import path, so its Snapshot is the type the analyzer
// guards and its functions are judged as that package's are: the
// Rendered memo method is clean, the same field written from any other
// function is a finding.
package traffic

import "sync"

// Snapshot mirrors the memo-carrying part of the real type.
type Snapshot struct {
	Version uint64

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
