// Package road models the urban road network that buses, taxis and the
// ground-truth traffic field operate on: a directed graph of nodes
// (intersections) and segments (directed road edges with geometry and a
// free-flow speed), plus a generator for synthetic arterial-grid cities
// shaped like the paper's 7 km x 4 km Jurong West study region.
package road

import (
	"fmt"
	"sort"

	"busprobe/internal/geo"
)

// NodeID identifies an intersection.
type NodeID int

// SegmentID identifies a directed road segment.
type SegmentID int

// Class describes the road hierarchy tier of a segment.
type Class int

const (
	// ClassLocal is a minor street (lower free-flow speed).
	ClassLocal Class = iota
	// ClassArterial is a major corridor (higher free-flow speed).
	ClassArterial
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassArterial:
		return "arterial"
	case ClassLocal:
		return "local"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Node is a road-network intersection.
type Node struct {
	ID  NodeID
	Pos geo.XY
}

// Segment is a directed road edge. Two-way roads are represented as two
// segments with swapped endpoints; Reverse links them.
type Segment struct {
	ID      SegmentID
	From    NodeID
	To      NodeID
	Shape   *geo.Polyline
	Class   Class
	FreeKmh float64   // free-flow automobile speed
	Reverse SegmentID // opposite direction, or -1 for one-way
	Name    string
}

// LengthM returns the segment's arc length in meters.
func (s *Segment) LengthM() float64 { return s.Shape.Length() }

// FreeTravelS returns the free-flow traversal time in seconds, the "a"
// term of the paper's Eq. 3 (road length / free travel speed).
func (s *Segment) FreeTravelS() float64 {
	return s.LengthM() / (s.FreeKmh / 3.6)
}

// Network is an immutable road graph. Build one with NewNetwork or the
// grid generator; concurrent readers are safe once built.
type Network struct {
	nodes    []Node
	segments []*Segment
	out      map[NodeID][]SegmentID
}

// NewNetwork assembles a network from nodes and segments. Segment and
// node IDs must be dense, zero-based, and match their slice index; this
// is validated and violations panic, since they indicate construction
// bugs rather than runtime conditions.
func NewNetwork(nodes []Node, segments []*Segment) *Network {
	n := &Network{
		nodes:    make([]Node, len(nodes)),
		segments: make([]*Segment, len(segments)),
		out:      make(map[NodeID][]SegmentID, len(nodes)),
	}
	copy(n.nodes, nodes)
	copy(n.segments, segments)
	for i, nd := range n.nodes {
		if nd.ID != NodeID(i) {
			panic(fmt.Sprintf("road: node at index %d has ID %d", i, nd.ID))
		}
	}
	for i, sg := range n.segments {
		if sg.ID != SegmentID(i) {
			panic(fmt.Sprintf("road: segment at index %d has ID %d", i, sg.ID))
		}
		if int(sg.From) >= len(n.nodes) || int(sg.To) >= len(n.nodes) {
			panic(fmt.Sprintf("road: segment %d references unknown node", i))
		}
		n.out[sg.From] = append(n.out[sg.From], sg.ID)
	}
	for _, ids := range n.out {
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	}
	return n
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumSegments returns the directed segment count.
func (n *Network) NumSegments() int { return len(n.segments) }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// Segment returns the segment with the given ID.
func (n *Network) Segment(id SegmentID) *Segment { return n.segments[id] }

// Segments returns the underlying segment slice; callers must not modify
// it. (Exposed for iteration-heavy simulation loops.)
func (n *Network) Segments() []*Segment { return n.segments }

// Outgoing returns the IDs of segments leaving the node; callers must not
// modify the returned slice.
func (n *Network) Outgoing(id NodeID) []SegmentID { return n.out[id] }

// UndirectedLengthM returns the summed road length counting each two-way
// pair once, which is the denominator of the paper's coverage ratios.
func (n *Network) UndirectedLengthM() float64 {
	var sum float64
	for _, s := range n.segments {
		if s.Reverse < 0 || s.ID < s.Reverse {
			sum += s.LengthM()
		}
	}
	return sum
}

// BBox returns the bounding box of all node positions.
func (n *Network) BBox() geo.BBox {
	pts := make([]geo.XY, len(n.nodes))
	for i, nd := range n.nodes {
		pts[i] = nd.Pos
	}
	return geo.BBoxOf(pts)
}

// NearestNode returns the ID of the node closest to p. It panics on an
// empty network.
func (n *Network) NearestNode(p geo.XY) NodeID {
	if len(n.nodes) == 0 {
		panic("road: NearestNode on empty network")
	}
	best := NodeID(0)
	bd := geo.DistM(p, n.nodes[0].Pos)
	for _, nd := range n.nodes[1:] {
		if d := geo.DistM(p, nd.Pos); d < bd {
			bd, best = d, nd.ID
		}
	}
	return best
}

// FindSegment returns the segment from one node to another, or -1 if no
// direct edge exists.
func (n *Network) FindSegment(from, to NodeID) SegmentID {
	for _, id := range n.out[from] {
		if n.segments[id].To == to {
			return id
		}
	}
	return -1
}
