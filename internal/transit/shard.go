package transit

import (
	"fmt"
	"sort"

	"busprobe/internal/core/region"
	"busprobe/internal/geo"
	"busprobe/internal/road"
)

// Partition is a route-closed spatial sharding of the transit network:
// every route's stops and path segments land wholly in one shard, so a
// shard can match, map, and estimate any trip ridden on its routes
// without consulting a peer. Routes that share a stop (or a directed
// road segment) are transitively grouped — a shared stop means either
// route could explain a rider's samples there, so splitting the pair
// would split one trip's evidence across dedup sets and estimators.
//
// Groups are placed on the region zone grid (§VI) by the zone of their
// stop centroid, swept in zone order, and assigned greedily to the
// least-loaded shard (by stop count) — deterministic for a given DB, and
// balanced enough that one downtown cluster cannot swallow the city.
type Partition struct {
	shards    int
	stopShard map[StopID]int
	segShard  map[road.SegmentID]int

	routesIn [][]RouteID
	stopsIn  []int
	segsIn   []int
}

// PartitionRoutes builds a route-closed partition of the DB's transit
// network into the given number of shards, ordering route groups
// spatially on the region model's fixed zone grid
// (region.DefaultConfig().ZoneM), so every process that partitions the
// same DB derives the same ownership map. shards may exceed the number
// of route groups; the surplus shards stay empty.
func PartitionRoutes(db *DB, shards int) (*Partition, error) {
	if db == nil {
		return nil, fmt.Errorf("transit: nil DB")
	}
	if shards <= 0 {
		return nil, fmt.Errorf("transit: need at least one shard, got %d", shards)
	}
	routes := db.Routes()
	if len(routes) == 0 {
		return nil, fmt.Errorf("transit: no routes to partition")
	}

	// Union-find over route indices: routes sharing a stop or a directed
	// path segment must be co-sharded.
	parent := make([]int, len(routes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	stopOwner := make(map[StopID]int)
	segOwner := make(map[road.SegmentID]int)
	for i, rt := range routes {
		for _, s := range rt.Stops {
			if j, ok := stopOwner[s]; ok {
				union(i, j)
			} else {
				stopOwner[s] = i
			}
		}
		for _, sid := range rt.Path {
			if j, ok := segOwner[sid]; ok {
				union(i, j)
			} else {
				segOwner[sid] = i
			}
		}
	}

	// Collect groups and their spatial footprint.
	type group struct {
		routes []int
		zone   region.Zone
		minID  RouteID
		stops  int
	}
	byRoot := make(map[int]*group)
	var order []*group
	for i := range routes {
		root := find(i)
		g := byRoot[root]
		if g == nil {
			g = &group{minID: routes[i].ID}
			byRoot[root] = g
			order = append(order, g)
		}
		g.routes = append(g.routes, i)
		if routes[i].ID < g.minID {
			g.minID = routes[i].ID
		}
	}
	for _, g := range order {
		var centroid geo.XY
		seen := make(map[StopID]bool)
		for _, ri := range g.routes {
			for _, s := range routes[ri].Stops {
				if !seen[s] {
					seen[s] = true
					pos := db.Stop(s).Pos
					centroid.X += pos.X
					centroid.Y += pos.Y
				}
			}
		}
		g.stops = len(seen)
		centroid.X /= float64(g.stops)
		centroid.Y /= float64(g.stops)
		g.zone = region.ZoneAt(centroid, region.DefaultConfig().ZoneM)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].zone != order[j].zone {
			return order[i].zone.Less(order[j].zone)
		}
		return order[i].minID < order[j].minID
	})

	p := &Partition{
		shards:    shards,
		stopShard: make(map[StopID]int, db.NumStops()),
		segShard:  make(map[road.SegmentID]int),
		routesIn:  make([][]RouteID, shards),
		stopsIn:   make([]int, shards),
		segsIn:    make([]int, shards),
	}
	load := make([]int, shards) // assigned stop count per shard
	for _, g := range order {
		sh := 0
		for i := 1; i < shards; i++ {
			if load[i] < load[sh] {
				sh = i
			}
		}
		load[sh] += g.stops
		for _, ri := range g.routes {
			rt := routes[ri]
			p.routesIn[sh] = append(p.routesIn[sh], rt.ID)
			for _, s := range rt.Stops {
				if _, ok := p.stopShard[s]; !ok {
					p.stopShard[s] = sh
					p.stopsIn[sh]++
				}
			}
			for _, sid := range rt.Path {
				if _, ok := p.segShard[sid]; !ok {
					p.segShard[sid] = sh
					p.segsIn[sh]++
				}
			}
		}
	}
	for sh := range p.routesIn {
		rts := p.routesIn[sh]
		sort.Slice(rts, func(i, j int) bool { return rts[i] < rts[j] })
	}
	return p, nil
}

// Shards returns the shard count the partition was built for.
func (p *Partition) Shards() int { return p.shards }

// StopShard returns the shard owning a stop.
func (p *Partition) StopShard(id StopID) (int, bool) {
	sh, ok := p.stopShard[id]
	return sh, ok
}

// SegmentShard returns the shard owning a directed road segment (only
// segments on some route's path are owned).
func (p *Partition) SegmentShard(sid road.SegmentID) (int, bool) {
	sh, ok := p.segShard[sid]
	return sh, ok
}

// RoutesIn returns the routes assigned to a shard, sorted by ID; callers
// must not modify the slice.
func (p *Partition) RoutesIn(shard int) []RouteID { return p.routesIn[shard] }

// StopsIn returns how many stops a shard owns.
func (p *Partition) StopsIn(shard int) int { return p.stopsIn[shard] }

// SegmentsIn returns how many directed segments a shard owns.
func (p *Partition) SegmentsIn(shard int) int { return p.segsIn[shard] }
