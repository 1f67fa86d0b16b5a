package transit

import (
	"fmt"
	"sort"

	"busprobe/internal/road"
)

// DB is the transit database: all stops, platforms and routes of the
// study region, with precomputed route-order information. It corresponds
// to the paper's "bus routes ... readily available from bus operators"
// offline input. A built DB is immutable and safe for concurrent readers.
type DB struct {
	net       *road.Network
	stops     []Stop
	platforms []Platform
	routes    []*Route
	routeIdx  map[RouteID]*Route
	// after[x] is the set of stops that appear after x on some route:
	// the R(x,y)=1, x!=y case of §III-C(3).
	after map[StopID]map[StopID]bool
	// stopsAtNode maps a road node to the logical stop there, if any.
	stopsAtNode map[road.NodeID]StopID
	// routesOfStop lists the routes serving each stop.
	routesOfStop map[StopID][]RouteID
}

// Network returns the road network the DB is built over.
func (db *DB) Network() *road.Network { return db.net }

// NumStops returns the number of logical stops.
func (db *DB) NumStops() int { return len(db.stops) }

// NumPlatforms returns the number of physical platforms.
func (db *DB) NumPlatforms() int { return len(db.platforms) }

// NumRoutes returns the number of routes.
func (db *DB) NumRoutes() int { return len(db.routes) }

// Stop returns the logical stop with the given ID.
func (db *DB) Stop(id StopID) Stop { return db.stops[id] }

// Platform returns the platform with the given ID.
func (db *DB) Platform(id PlatformID) Platform { return db.platforms[id] }

// Stops returns all logical stops; callers must not modify the slice.
func (db *DB) Stops() []Stop { return db.stops }

// Routes returns all routes; callers must not modify the slice.
func (db *DB) Routes() []*Route { return db.routes }

// Route returns the route with the given ID, or nil.
func (db *DB) Route(id RouteID) *Route { return db.routeIdx[id] }

// RoutesOf returns the IDs of routes serving the stop; callers must not
// modify the slice.
func (db *DB) RoutesOf(s StopID) []RouteID { return db.routesOfStop[s] }

// R is the paper's route-order relation (§III-C(3)): R(x,y) = 1 if y is
// behind (after) x on some bus route or x == y, and 0 otherwise. Trip
// mapping multiplies candidate-sequence likelihoods by R, zeroing
// transitions a bus could not make.
func (db *DB) R(x, y StopID) float64 {
	if x == y {
		return 1
	}
	if db.after[x][y] {
		return 1
	}
	return 0
}

// CoverageByRouteCount returns, for each undirected road pair covered by
// at least one route, how many distinct routes traverse it (in either
// direction), keyed by the lower segment ID of the pair.
func (db *DB) CoverageByRouteCount() map[road.SegmentID]int {
	perSeg := make(map[road.SegmentID]map[RouteID]bool)
	for _, rt := range db.routes {
		for _, sid := range rt.Path {
			key := sid
			if rev := db.net.Segment(sid).Reverse; rev >= 0 && rev < key {
				key = rev
			}
			if perSeg[key] == nil {
				perSeg[key] = make(map[RouteID]bool)
			}
			perSeg[key][rt.ID] = true
		}
	}
	out := make(map[road.SegmentID]int, len(perSeg))
	for sid, rts := range perSeg {
		out[sid] = len(rts)
	}
	return out
}

// CoverageRatio returns the fraction of undirected road length traversed
// by at least minRoutes routes. The paper reports ~80% of roads covered
// by >= 2 routes in the study region and >50% covered by the 8
// experimental routes.
func (db *DB) CoverageRatio(minRoutes int) float64 {
	counts := db.CoverageByRouteCount()
	var covered float64
	for sid, c := range counts {
		if c >= minRoutes {
			covered += db.net.Segment(sid).LengthM()
		}
	}
	total := db.net.UndirectedLengthM()
	if total == 0 {
		return 0
	}
	return covered / total
}

// builder assembles a DB incrementally.
type builder struct {
	db *DB
	// platformAt finds an existing platform by (node, side).
	platformAt map[[2]int]PlatformID
}

// NewBuilder returns a DB builder over the network.
func NewBuilder(net *road.Network) *Builder {
	return &Builder{b: builder{
		db: &DB{
			net:          net,
			routeIdx:     make(map[RouteID]*Route),
			after:        make(map[StopID]map[StopID]bool),
			stopsAtNode:  make(map[road.NodeID]StopID),
			routesOfStop: make(map[StopID][]RouteID),
		},
		platformAt: make(map[[2]int]PlatformID),
	}}
}

// Builder constructs a transit DB route by route. Not safe for concurrent
// use; Build finalizes and returns the immutable DB.
type Builder struct {
	b     builder
	built bool
}

// AddRoute registers a route that visits the given node sequence with a
// stop at every node. Side selection alternates with travel direction so
// that a two-way road gets two platforms per stop location. Returns an
// error if the node walk is not connected in the network or revisits a
// node.
func (bl *Builder) AddRoute(id RouteID, name string, nodes []road.NodeID, headwayS float64) error {
	if bl.built {
		return fmt.Errorf("transit: builder already finalized")
	}
	if len(nodes) < 2 {
		return fmt.Errorf("transit: route %s has %d nodes, need >= 2", id, len(nodes))
	}
	if _, dup := bl.b.db.routeIdx[id]; dup {
		return fmt.Errorf("transit: duplicate route %s", id)
	}
	seen := make(map[road.NodeID]bool, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			return fmt.Errorf("transit: route %s revisits node %d", id, n)
		}
		seen[n] = true
	}
	db := bl.b.db
	path := make([]road.SegmentID, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		sid := db.net.FindSegment(nodes[i], nodes[i+1])
		if sid < 0 {
			return fmt.Errorf("transit: route %s: no segment %d->%d", id, nodes[i], nodes[i+1])
		}
		path = append(path, sid)
	}

	rt := &Route{
		ID:          id,
		Name:        name,
		Path:        path,
		HeadwayS:    headwayS,
		stopPathIdx: make([]int, 0, len(nodes)),
	}
	for i, n := range nodes {
		side := bl.sideForVisit(nodes, i)
		pid := bl.ensurePlatform(n, side)
		plat := db.platforms[pid]
		rt.Platforms = append(rt.Platforms, pid)
		rt.Stops = append(rt.Stops, plat.Stop)
		rt.stopPathIdx = append(rt.stopPathIdx, i)
	}
	db.routes = append(db.routes, rt)
	db.routeIdx[id] = rt

	// Maintain the order relation and per-stop route lists.
	for i, x := range rt.Stops {
		db.routesOfStop[x] = append(db.routesOfStop[x], id)
		if db.after[x] == nil {
			db.after[x] = make(map[StopID]bool)
		}
		for _, y := range rt.Stops[i+1:] {
			db.after[x][y] = true
		}
	}
	return nil
}

// sideForVisit picks the platform side for the i-th node of a walk based
// on the direction of travel through it: eastbound/northbound buses use
// side 0, the opposite direction side 1. This yields two platforms per
// location on two-way corridors, as in the real city.
func (bl *Builder) sideForVisit(nodes []road.NodeID, i int) int {
	net := bl.b.db.net
	var from, to road.NodeID
	switch {
	case i+1 < len(nodes):
		from, to = nodes[i], nodes[i+1]
	default:
		from, to = nodes[i-1], nodes[i]
	}
	a, b := net.Node(from).Pos, net.Node(to).Pos
	dx, dy := b.X-a.X, b.Y-a.Y
	if dx+dy >= 0 {
		return 0
	}
	return 1
}

// ensurePlatform returns the platform at (node, side), creating it and
// its logical stop as needed.
func (bl *Builder) ensurePlatform(n road.NodeID, side int) PlatformID {
	db := bl.b.db
	key := [2]int{int(n), side}
	if pid, ok := bl.b.platformAt[key]; ok {
		return pid
	}
	// Logical stop: one per node.
	sid, ok := db.stopsAtNode[n]
	if !ok {
		sid = StopID(len(db.stops))
		db.stops = append(db.stops, Stop{
			ID:   sid,
			Node: n,
			Name: fmt.Sprintf("S%03d", int(sid)),
			Pos:  db.net.Node(n).Pos,
		})
		db.stopsAtNode[n] = sid
	}
	pid := PlatformID(len(db.platforms))
	pos := db.net.Node(n).Pos
	// Offset the platform ~12 m from the intersection center, one side
	// per direction, so opposite platforms are distinct places in the
	// radio environment (needed for the Fig. 2(c) "effective" analysis).
	off := 12.0
	if side == 1 {
		off = -12.0
	}
	pos.X += off
	pos.Y -= off / 2
	db.platforms = append(db.platforms, Platform{ID: pid, Stop: sid, Node: n, Side: side, Pos: pos})
	st := db.stops[sid]
	st.Platforms = append(st.Platforms, pid)
	db.stops[sid] = st
	bl.b.platformAt[key] = pid
	return pid
}

// Build finalizes the DB. The builder must not be used afterwards.
func (bl *Builder) Build() *DB {
	bl.built = true
	db := bl.b.db
	for s, rts := range db.routesOfStop {
		sort.Slice(rts, func(i, j int) bool { return rts[i] < rts[j] })
		db.routesOfStop[s] = rts
	}
	return db
}
