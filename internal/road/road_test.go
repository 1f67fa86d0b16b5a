package road

import (
	"math"
	"testing"

	"busprobe/internal/geo"
)

func mustGrid(t *testing.T, cfg GridConfig) *Network {
	t.Helper()
	n, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func smallCfg() GridConfig {
	cfg := DefaultGridConfig()
	cfg.WidthM = 2000
	cfg.HeightM = 1500
	cfg.SpacingM = 500
	cfg.JitterM = 0
	return cfg
}

func TestGenerateGridCounts(t *testing.T) {
	n := mustGrid(t, smallCfg())
	// 5 cols x 4 rows of nodes.
	if n.NumNodes() != 20 {
		t.Fatalf("nodes = %d, want 20", n.NumNodes())
	}
	// Horizontal: 4 rows * 4 edges; vertical: 5 cols * 3 edges; doubled.
	want := 2 * (4*4 + 5*3)
	if n.NumSegments() != want {
		t.Fatalf("segments = %d, want %d", n.NumSegments(), want)
	}
}

func TestSegmentReversePairing(t *testing.T) {
	n := mustGrid(t, smallCfg())
	for _, s := range n.Segments() {
		r := n.Segment(s.Reverse)
		if r.Reverse != s.ID {
			t.Fatalf("segment %d reverse not mutual", s.ID)
		}
		if r.From != s.To || r.To != s.From {
			t.Fatalf("segment %d reverse endpoints wrong", s.ID)
		}
		if math.Abs(r.LengthM()-s.LengthM()) > 1e-9 {
			t.Fatalf("segment %d reverse length differs", s.ID)
		}
	}
}

func TestGridLengths(t *testing.T) {
	n := mustGrid(t, smallCfg())
	var total float64
	for _, s := range n.Segments() {
		if math.Abs(s.LengthM()-500) > 1e-9 {
			t.Fatalf("segment %d length %v, want 500 (no jitter)", s.ID, s.LengthM())
		}
		total += s.LengthM()
	}
	if und := n.UndirectedLengthM(); math.Abs(und-total/2) > 1e-6 {
		t.Errorf("undirected %v != total/2 %v", und, total/2)
	}
}

func TestArterialPromotion(t *testing.T) {
	n := mustGrid(t, smallCfg())
	var art, loc int
	for _, s := range n.Segments() {
		switch s.Class {
		case ClassArterial:
			art++
			if s.FreeKmh != 100 {
				t.Fatalf("arterial speed %v", s.FreeKmh)
			}
		case ClassLocal:
			loc++
			if s.FreeKmh != 70 {
				t.Fatalf("local speed %v", s.FreeKmh)
			}
		}
	}
	if art == 0 || loc == 0 {
		t.Fatalf("expected both classes, got %d arterial %d local", art, loc)
	}
}

func TestOutgoingConsistency(t *testing.T) {
	n := mustGrid(t, smallCfg())
	count := 0
	for i := 0; i < n.NumNodes(); i++ {
		for _, sid := range n.Outgoing(NodeID(i)) {
			if n.Segment(sid).From != NodeID(i) {
				t.Fatalf("outgoing list wrong for node %d", i)
			}
			count++
		}
	}
	if count != n.NumSegments() {
		t.Fatalf("outgoing total %d != segments %d", count, n.NumSegments())
	}
}

func TestFindSegment(t *testing.T) {
	n := mustGrid(t, smallCfg())
	s := n.Segment(0)
	if got := n.FindSegment(s.From, s.To); got != s.ID {
		t.Errorf("FindSegment = %d, want %d", got, s.ID)
	}
	if got := n.FindSegment(s.From, s.From); got != -1 {
		t.Errorf("self-loop lookup = %d, want -1", got)
	}
}

func TestNearestNode(t *testing.T) {
	n := mustGrid(t, smallCfg())
	// Node 0 is at (0,0) with no jitter.
	if id := n.NearestNode(geo.XY{X: 10, Y: -20}); id != 0 {
		t.Errorf("NearestNode = %d, want 0", id)
	}
	if id := n.NearestNode(geo.XY{X: 510, Y: 490}); n.Node(id).Pos != (geo.XY{X: 500, Y: 500}) {
		t.Errorf("NearestNode pos = %v", n.Node(id).Pos)
	}
}

func TestBBoxCoversExtent(t *testing.T) {
	n := mustGrid(t, smallCfg())
	b := n.BBox()
	if b.Width() != 2000 || b.Height() != 1500 {
		t.Errorf("bbox %v x %v", b.Width(), b.Height())
	}
}

func TestDefaultConfigScale(t *testing.T) {
	n := mustGrid(t, DefaultGridConfig())
	b := n.BBox()
	// Jitter of 40 m can stretch the box slightly beyond 7000x4000.
	if b.Width() < 6800 || b.Width() > 7200 || b.Height() < 3800 || b.Height() > 4200 {
		t.Errorf("default city extent %v x %v", b.Width(), b.Height())
	}
	if a := b.AreaKm2(); a < 25 || a > 32 {
		t.Errorf("area = %v km2, want ~28", a)
	}
}

func TestGenerateGridDeterministic(t *testing.T) {
	a := mustGrid(t, DefaultGridConfig())
	b := mustGrid(t, DefaultGridConfig())
	if a.NumNodes() != b.NumNodes() {
		t.Fatal("node counts differ")
	}
	for i := 0; i < a.NumNodes(); i++ {
		if a.Node(NodeID(i)).Pos != b.Node(NodeID(i)).Pos {
			t.Fatalf("node %d position differs between runs", i)
		}
	}
}

func TestGenerateGridSeedChangesJitter(t *testing.T) {
	c1 := DefaultGridConfig()
	c2 := DefaultGridConfig()
	c2.Seed = 99
	a := mustGrid(t, c1)
	b := mustGrid(t, c2)
	same := 0
	for i := 0; i < a.NumNodes(); i++ {
		if a.Node(NodeID(i)).Pos == b.Node(NodeID(i)).Pos {
			same++
		}
	}
	if same == a.NumNodes() {
		t.Error("different seeds produced identical jitter")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []GridConfig{
		{WidthM: 0, HeightM: 100, SpacingM: 10, LocalKmh: 50, ArterialKmh: 70},
		{WidthM: 100, HeightM: 100, SpacingM: 0, LocalKmh: 50, ArterialKmh: 70},
		{WidthM: 100, HeightM: 100, SpacingM: 500, LocalKmh: 50, ArterialKmh: 70},
		{WidthM: 100, HeightM: 100, SpacingM: 50, LocalKmh: 0, ArterialKmh: 70},
	}
	for i, cfg := range bad {
		if _, err := GenerateGrid(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFreeTravelS(t *testing.T) {
	n := mustGrid(t, smallCfg())
	for _, s := range n.Segments() {
		want := s.LengthM() / (s.FreeKmh / 3.6)
		if math.Abs(s.FreeTravelS()-want) > 1e-9 {
			t.Fatalf("FreeTravelS wrong for %d", s.ID)
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassArterial.String() != "arterial" || ClassLocal.String() != "local" {
		t.Error("Class.String wrong")
	}
	if Class(9).String() != "class(9)" {
		t.Error("unknown class string wrong")
	}
}
