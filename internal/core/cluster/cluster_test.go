package cluster

import (
	"math"
	"testing"

	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

func el(t float64, stop int, score float64) Element {
	return Element{TimeS: t, Stop: transit.StopID(stop), Score: score}
}

func TestTwoBurstsTwoClusters(t *testing.T) {
	// Two boarding bursts 120 s apart at different stops.
	elems := []Element{
		el(100, 1, 5), el(103, 1, 4.7), el(106, 1, 5.2),
		el(226, 2, 5.1), el(230, 2, 4.9),
	}
	cs, err := Sequence(elems, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("clusters = %d, want 2", len(cs))
	}
	if cs[0].Candidates[0].Stop != 1 || cs[1].Candidates[0].Stop != 2 {
		t.Errorf("best stops wrong: %+v", cs)
	}
	if cs[0].ArriveS != 100 || cs[0].DepartS != 106 {
		t.Errorf("visit window = [%v,%v]", cs[0].ArriveS, cs[0].DepartS)
	}
	if cs[1].ArriveS != 226 || cs[1].DepartS != 230 {
		t.Errorf("second window = [%v,%v]", cs[1].ArriveS, cs[1].DepartS)
	}
}

func TestNoisyMemberJoinsPool(t *testing.T) {
	// One sample in a tight burst matched a wrong stop; time proximity
	// still pulls it into the cluster, giving a two-candidate pool.
	elems := []Element{
		el(100, 1, 5), el(102, 9, 3), el(104, 1, 5.5), el(106, 1, 4.8),
	}
	cs, err := Sequence(elems, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Fatalf("clusters = %d, want 1", len(cs))
	}
	c := cs[0]
	if len(c.Candidates) != 2 {
		t.Fatalf("pool size = %d, want 2", len(c.Candidates))
	}
	best := c.Candidates[0]
	if best.Stop != 1 {
		t.Errorf("best = %+v", best)
	}
	if math.Abs(best.P-0.75) > 1e-9 {
		t.Errorf("p = %v, want 0.75", best.P)
	}
	wantAvg := (5 + 5.5 + 4.8) / 3
	if math.Abs(best.AvgScore-wantAvg) > 1e-9 {
		t.Errorf("avg = %v, want %v", best.AvgScore, wantAvg)
	}
}

func TestAffinityFormula(t *testing.T) {
	p := DefaultParams()
	a := el(0, 1, 5)
	b := el(10, 1, 6)
	// (30-10)/30 + (7-1)/7 = 0.6667 + 0.8571
	want := 20.0/30 + 6.0/7
	if got := Affinity(a, b, p); math.Abs(got-want) > 1e-9 {
		t.Errorf("affinity = %v, want %v", got, want)
	}
	c := el(10, 2, 6) // different stop: L = 0
	if got := Affinity(a, c, p); math.Abs(got-20.0/30) > 1e-9 {
		t.Errorf("cross-stop affinity = %v", got)
	}
}

func TestEpsilonExtremes(t *testing.T) {
	elems := []Element{
		el(0, 1, 5), el(5, 1, 5), el(60, 2, 5), el(65, 2, 5),
	}
	// Huge epsilon: nothing co-clusters.
	high, err := Sequence(elems, Params{S0: 7, T0: 30, Epsilon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(high) != 4 {
		t.Errorf("epsilon=10 clusters = %d, want 4", len(high))
	}
	// Very negative epsilon: everything merges.
	low, err := Sequence(elems, Params{S0: 7, T0: 30, Epsilon: -100})
	if err != nil {
		t.Fatal(err)
	}
	if len(low) != 1 {
		t.Errorf("epsilon=-100 clusters = %d, want 1", len(low))
	}
}

func TestSequenceSortsInput(t *testing.T) {
	elems := []Element{el(106, 1, 5), el(100, 1, 5), el(103, 1, 5)}
	cs, err := Sequence(elems, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].ArriveS != 100 || cs[0].DepartS != 106 {
		t.Errorf("unsorted input mishandled: %+v", cs)
	}
}

func TestSequenceEmpty(t *testing.T) {
	cs, err := Sequence(nil, DefaultParams())
	if err != nil || cs != nil {
		t.Errorf("empty input: %v %v", cs, err)
	}
}

func TestSequenceBadParams(t *testing.T) {
	if _, err := Sequence([]Element{el(0, 1, 5)}, Params{S0: 0, T0: 30}); err == nil {
		t.Error("want error for zero S0")
	}
	if _, err := Sequence([]Element{el(0, 1, 5)}, Params{S0: 7, T0: 0}); err == nil {
		t.Error("want error for zero T0")
	}
}

func TestInvariantsProperty(t *testing.T) {
	// Invariants over random inputs: every element lands in exactly one
	// cluster, clusters are time-ordered and non-overlapping, candidate
	// p sums to 1, Arrive <= Depart.
	rng := stats.NewRNG(42)
	p := DefaultParams()
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		elems := make([]Element, n)
		tcur := 0.0
		for i := range elems {
			tcur += rng.Range(0, 60)
			elems[i] = el(tcur, 1+rng.Intn(5), rng.Range(2, 7))
		}
		cs, err := Sequence(elems, p)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		prevEnd := math.Inf(-1)
		for _, c := range cs {
			total += len(c.Elements)
			if c.ArriveS > c.DepartS {
				t.Fatalf("trial %d: inverted window %+v", trial, c)
			}
			if c.ArriveS < prevEnd {
				t.Fatalf("trial %d: clusters overlap in time", trial)
			}
			prevEnd = c.DepartS
			var psum float64
			for _, cand := range c.Candidates {
				psum += cand.P
				if cand.P <= 0 || cand.P > 1 {
					t.Fatalf("trial %d: bad candidate p %v", trial, cand.P)
				}
			}
			if math.Abs(psum-1) > 1e-9 {
				t.Fatalf("trial %d: p sums to %v", trial, psum)
			}
			// Pool ordering: descending P.
			for i := 1; i < len(c.Candidates); i++ {
				if c.Candidates[i].P > c.Candidates[i-1].P {
					t.Fatalf("trial %d: pool not ordered", trial)
				}
			}
		}
		if total != n {
			t.Fatalf("trial %d: %d elements in, %d out", trial, n, total)
		}
	}
}

func TestDwellTimeExtraction(t *testing.T) {
	// A 25 s boarding burst gives a 25 s dwell (departing - arrival).
	elems := []Element{
		el(500, 3, 5), el(508, 3, 5.5), el(515, 3, 6), el(525, 3, 5),
	}
	cs, err := Sequence(elems, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Fatalf("clusters = %d", len(cs))
	}
	if dwell := cs[0].DepartS - cs[0].ArriveS; dwell != 25 {
		t.Errorf("dwell = %v, want 25", dwell)
	}
}
