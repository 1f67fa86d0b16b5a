package transit

import (
	"math"
	"testing"

	"busprobe/internal/road"
)

func testNet(t *testing.T) *road.Network {
	t.Helper()
	cfg := road.DefaultGridConfig()
	cfg.WidthM = 3000
	cfg.HeightM = 2000
	cfg.JitterM = 0
	net, err := road.GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// lineNodes returns the node IDs along the bottom row of the grid.
func lineNodes(net *road.Network, n int) []road.NodeID {
	ids := make([]road.NodeID, n)
	for i := range ids {
		ids[i] = road.NodeID(i) // bottom row is contiguous in the grid layout
	}
	return ids
}

func TestBuilderSingleRoute(t *testing.T) {
	net := testNet(t)
	bl := NewBuilder(net)
	nodes := lineNodes(net, 5)
	if err := bl.AddRoute("179", "Service 179", nodes, 480); err != nil {
		t.Fatal(err)
	}
	db := bl.Build()
	if db.NumRoutes() != 1 || db.NumStops() != 5 {
		t.Fatalf("routes=%d stops=%d", db.NumRoutes(), db.NumStops())
	}
	rt := db.Route("179")
	if rt == nil || rt.NumStops() != 5 || rt.NumLegs() != 4 {
		t.Fatalf("route shape wrong: %+v", rt)
	}
	if len(rt.Path) != 4 {
		t.Fatalf("path len = %d", len(rt.Path))
	}
	leg := rt.Leg(net, 0)
	if leg.FromStop != rt.Stops[0] || leg.ToStop != rt.Stops[1] {
		t.Error("leg endpoints wrong")
	}
	if math.Abs(leg.LengthM-500) > 1e-9 {
		t.Errorf("leg length = %v", leg.LengthM)
	}
}

func TestLegBetweenConcatenates(t *testing.T) {
	net := testNet(t)
	bl := NewBuilder(net)
	if err := bl.AddRoute("A", "", lineNodes(net, 6), 480); err != nil {
		t.Fatal(err)
	}
	db := bl.Build()
	rt := db.Route("A")
	leg := rt.LegBetween(net, 1, 4)
	if len(leg.Segments) != 3 {
		t.Fatalf("segments = %d, want 3", len(leg.Segments))
	}
	if math.Abs(leg.LengthM-1500) > 1e-9 {
		t.Errorf("length = %v, want 1500", leg.LengthM)
	}
	if leg.FromStop != rt.Stops[1] || leg.ToStop != rt.Stops[4] {
		t.Error("endpoints wrong")
	}
}

func TestLegBetweenPanicsOnBadRange(t *testing.T) {
	net := testNet(t)
	bl := NewBuilder(net)
	if err := bl.AddRoute("A", "", lineNodes(net, 4), 480); err != nil {
		t.Fatal(err)
	}
	rt := bl.Build().Route("A")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	rt.LegBetween(net, 2, 2)
}

func TestOrderRelation(t *testing.T) {
	net := testNet(t)
	bl := NewBuilder(net)
	if err := bl.AddRoute("A", "", lineNodes(net, 5), 480); err != nil {
		t.Fatal(err)
	}
	db := bl.Build()
	rt := db.Route("A")
	s := rt.Stops
	if db.R(s[0], s[3]) != 1 {
		t.Error("R(forward) should be 1")
	}
	if db.R(s[3], s[0]) != 0 {
		t.Error("R(backward) should be 0")
	}
	if db.R(s[2], s[2]) != 1 {
		t.Error("R(self) should be 1")
	}
	if !db.after[s[0]][s[4]] || db.after[s[4]][s[0]] {
		t.Error("After wrong")
	}
}

func TestSharedStopsAcrossRoutes(t *testing.T) {
	net := testNet(t)
	bl := NewBuilder(net)
	// Two eastbound routes over overlapping nodes share stops.
	if err := bl.AddRoute("A", "", lineNodes(net, 5), 480); err != nil {
		t.Fatal(err)
	}
	if err := bl.AddRoute("B", "", lineNodes(net, 4), 480); err != nil {
		t.Fatal(err)
	}
	db := bl.Build()
	if db.NumStops() != 5 {
		t.Fatalf("stops = %d, want 5 (shared)", db.NumStops())
	}
	a, b := db.Route("A"), db.Route("B")
	for i := 0; i < 4; i++ {
		if a.Stops[i] != b.Stops[i] {
			t.Fatalf("stop %d not shared", i)
		}
	}
	rts := db.RoutesOf(a.Stops[0])
	if len(rts) != 2 || rts[0] != "A" || rts[1] != "B" {
		t.Errorf("RoutesOf = %v", rts)
	}
}

func TestOppositePlatformsAggregate(t *testing.T) {
	net := testNet(t)
	bl := NewBuilder(net)
	fwd := lineNodes(net, 5)
	rev := make([]road.NodeID, 5)
	for i := range rev {
		rev[i] = fwd[len(fwd)-1-i]
	}
	if err := bl.AddRoute("E", "", fwd, 480); err != nil {
		t.Fatal(err)
	}
	if err := bl.AddRoute("W", "", rev, 480); err != nil {
		t.Fatal(err)
	}
	db := bl.Build()
	if db.NumStops() != 5 {
		t.Fatalf("stops = %d, want 5 aggregated", db.NumStops())
	}
	if db.NumPlatforms() != 10 {
		t.Fatalf("platforms = %d, want 10 (two sides)", db.NumPlatforms())
	}
	for _, st := range db.Stops() {
		if len(st.Platforms) != 2 {
			t.Fatalf("stop %d has %d platforms", st.ID, len(st.Platforms))
		}
		p0 := db.Platform(st.Platforms[0])
		p1 := db.Platform(st.Platforms[1])
		if p0.Side == p1.Side {
			t.Fatal("platform sides not distinct")
		}
		if p0.Pos == p1.Pos {
			t.Fatal("platform positions identical")
		}
		if p0.Stop != st.ID || p1.Stop != st.ID {
			t.Fatal("platform stop backlink wrong")
		}
	}
	// Both directions possible: R holds both ways via the two routes.
	s := db.Route("E").Stops
	if db.R(s[0], s[4]) != 1 || db.R(s[4], s[0]) != 1 {
		t.Error("two-way corridor should allow both orders")
	}
}

func TestAddRouteErrors(t *testing.T) {
	net := testNet(t)
	bl := NewBuilder(net)
	if err := bl.AddRoute("X", "", []road.NodeID{0}, 480); err == nil {
		t.Error("want error for short route")
	}
	if err := bl.AddRoute("X", "", []road.NodeID{0, 1, 0}, 480); err == nil {
		t.Error("want error for revisit")
	}
	// Nodes 0 and 2 are not adjacent.
	if err := bl.AddRoute("X", "", []road.NodeID{0, 2}, 480); err == nil {
		t.Error("want error for disconnected walk")
	}
	if err := bl.AddRoute("X", "", lineNodes(net, 3), 480); err != nil {
		t.Fatal(err)
	}
	if err := bl.AddRoute("X", "", lineNodes(net, 3), 480); err == nil {
		t.Error("want error for duplicate ID")
	}
	bl.Build()
	if err := bl.AddRoute("Y", "", lineNodes(net, 3), 480); err == nil {
		t.Error("want error after Build")
	}
}

func TestStopAtNode(t *testing.T) {
	net := testNet(t)
	bl := NewBuilder(net)
	if err := bl.AddRoute("A", "", lineNodes(net, 3), 480); err != nil {
		t.Fatal(err)
	}
	db := bl.Build()
	if _, ok := db.stopsAtNode[0]; !ok {
		t.Error("expected stop at node 0")
	}
	if _, ok := db.stopsAtNode[road.NodeID(net.NumNodes()-1)]; ok {
		t.Error("unexpected stop at unserved node")
	}
}

func TestPlanRoutesDefault(t *testing.T) {
	cfg := road.DefaultGridConfig()
	net, err := road.GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultPlanConfig()
	db, err := PlanRoutes(net, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumRoutes() != 8 {
		t.Fatalf("routes = %d", db.NumRoutes())
	}
	for _, rt := range db.Routes() {
		if rt.NumStops() < pcfg.MinStops || rt.NumStops() > pcfg.MaxStops {
			t.Errorf("route %s has %d stops, want [%d,%d]",
				rt.ID, rt.NumStops(), pcfg.MinStops, pcfg.MaxStops)
		}
		if len(rt.Path) != rt.NumStops()-1 {
			t.Errorf("route %s path/stop mismatch", rt.ID)
		}
	}
	// The paper's region has >100 stops; with sharing we still expect a
	// dense stop set.
	if db.NumStops() < 80 {
		t.Errorf("only %d stops planned", db.NumStops())
	}
	// Coverage of >=1 route should be substantial (paper: >50%).
	if cov := db.CoverageRatio(1); cov < 0.3 {
		t.Errorf("coverage ratio = %v", cov)
	}
}

func TestPlanRoutesDeterministic(t *testing.T) {
	net, err := road.GenerateGrid(road.DefaultGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := PlanRoutes(net, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanRoutes(net, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumStops() != b.NumStops() || a.NumPlatforms() != b.NumPlatforms() {
		t.Fatal("planning not deterministic")
	}
	for i, rt := range a.Routes() {
		other := b.Routes()[i]
		if rt.ID != other.ID || rt.NumStops() != other.NumStops() {
			t.Fatalf("route %d differs", i)
		}
		for j := range rt.Stops {
			if rt.Stops[j] != other.Stops[j] {
				t.Fatalf("route %s stop %d differs", rt.ID, j)
			}
		}
	}
}

func TestPlanRoutesValidation(t *testing.T) {
	net := testNet(t)
	if _, err := PlanRoutes(net, PlanConfig{}); err == nil {
		t.Error("want error for empty config")
	}
	bad := DefaultPlanConfig()
	bad.MinStops, bad.MaxStops = 10, 5
	if _, err := PlanRoutes(net, bad); err == nil {
		t.Error("want error for inverted bounds")
	}
}

func TestStopIndex(t *testing.T) {
	net := testNet(t)
	bl := NewBuilder(net)
	if err := bl.AddRoute("A", "", lineNodes(net, 4), 480); err != nil {
		t.Fatal(err)
	}
	rt := bl.Build().Route("A")
	if rt.StopIndex(rt.Stops[2]) != 2 {
		t.Error("StopIndex wrong")
	}
	if rt.StopIndex(StopID(999)) != -1 {
		t.Error("missing stop should give -1")
	}
}

func TestCoverageByRouteCount(t *testing.T) {
	net := testNet(t)
	bl := NewBuilder(net)
	if err := bl.AddRoute("A", "", lineNodes(net, 4), 480); err != nil {
		t.Fatal(err)
	}
	if err := bl.AddRoute("B", "", lineNodes(net, 3), 480); err != nil {
		t.Fatal(err)
	}
	db := bl.Build()
	counts := db.CoverageByRouteCount()
	twoRoutes := 0
	for _, c := range counts {
		if c == 2 {
			twoRoutes++
		}
	}
	if twoRoutes != 2 {
		t.Errorf("segments with 2 routes = %d, want 2", twoRoutes)
	}
	if db.CoverageRatio(1) <= db.CoverageRatio(2) {
		t.Error("coverage(1) should exceed coverage(2)")
	}
}
