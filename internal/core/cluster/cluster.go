// Package cluster implements the paper's per-bus-stop co-clustering
// (§III-C(2)): matched cellular samples that are close in time and agree
// on their matched stop are grouped into one cluster per bus-stop visit,
// from which the visit's arrival and departing times are extracted.
//
// For two samples e_i, e_j with matched stops b_i, b_j and similarity
// scores s_i, s_j, the matching affinity is
//
//	L(e_i, e_j) = (s0 - |s_j - s_i|) / s0   if b_i == b_j, else 0
//
// and the samples co-cluster when
//
//	(t0 - |t_j - t_i|) / t0 + L(e_i, e_j) > ε        (Eq. 1)
//
// with s0 = 7 (maximum similarity score), t0 = 30 s (maximum same-stop
// sample spacing) and ε = 0.6 in the deployed system (Fig. 5 shows the
// accuracy plateau that tolerates ε ∈ [~0.3, ~1.3]).
package cluster

import (
	"fmt"
	"math"
	"sort"

	"busprobe/internal/transit"
)

// Params are the clustering constants of Eq. 1.
type Params struct {
	// S0 is the maximum possible similarity score.
	S0 float64
	// T0 is the maximum time interval between two samples of the same
	// stop visit, in seconds.
	T0 float64
	// Epsilon is the co-clustering threshold.
	Epsilon float64
}

// DefaultParams returns the deployed configuration (s0 = 7, t0 = 30 s,
// ε = 0.6).
func DefaultParams() Params {
	return Params{S0: 7, T0: 30, Epsilon: 0.6}
}

// Validate rejects non-positive constants.
func (p Params) Validate() error {
	if p.S0 <= 0 || p.T0 <= 0 {
		return fmt.Errorf("cluster: non-positive constants %+v", p)
	}
	return nil
}

// Element is one matched cellular sample entering the clustering stage:
// its timestamp, best-match stop, and that match's similarity score.
type Element struct {
	TimeS float64
	Stop  transit.StopID
	Score float64
}

// Candidate is one stop in a cluster's candidate pool, with the paper's
// per-cluster statistics: p, the fraction of the cluster's samples whose
// best match is this stop, and AvgScore, their mean similarity.
type Candidate struct {
	Stop     transit.StopID
	P        float64
	AvgScore float64
}

// Cluster is one inferred bus-stop visit.
type Cluster struct {
	// Elements are the member samples in time order.
	Elements []Element
	// ArriveS and DepartS are the visit's arrival and departing points:
	// the first and last member timestamps (Fig. 6).
	ArriveS float64
	DepartS float64
	// Candidates is the stop pool, ordered by descending p (then
	// descending AvgScore, then stop ID).
	Candidates []Candidate
}

// Affinity computes the Eq. 1 left-hand side for two elements.
func Affinity(a, b Element, p Params) float64 {
	l := 0.0
	if a.Stop == b.Stop {
		l = (p.S0 - math.Abs(b.Score-a.Score)) / p.S0
	}
	return (p.T0-math.Abs(b.TimeS-a.TimeS))/p.T0 + l
}

// Sequence clusters a trip's matched samples into consecutive bus-stop
// visits. Elements are processed in time order (sorted defensively); an
// element joins the open cluster when its best Eq. 1 affinity against
// any member exceeds ε, otherwise it starts a new cluster. Single-linkage
// keeps a burst of taps together even when one sample matched a noisy
// stop, which is what gives clusters their multi-candidate pools.
func Sequence(elems []Element, p Params) ([]Cluster, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(elems) == 0 {
		return nil, nil
	}
	sorted := make([]Element, len(elems))
	copy(sorted, elems)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TimeS < sorted[j].TimeS })

	var out []Cluster
	open := []Element{sorted[0]}
	flush := func() {
		out = append(out, finalize(open))
		open = nil
	}
	for _, e := range sorted[1:] {
		best := math.Inf(-1)
		for _, m := range open {
			if a := Affinity(m, e, p); a > best {
				best = a
			}
		}
		if best > p.Epsilon {
			open = append(open, e)
		} else {
			flush()
			open = []Element{e}
		}
	}
	flush()
	return out, nil
}

// finalize computes a cluster's summary statistics from its members.
func finalize(members []Element) Cluster {
	c := Cluster{
		Elements: members,
		ArriveS:  members[0].TimeS,
		DepartS:  members[len(members)-1].TimeS,
	}
	type agg struct {
		n     int
		total float64
	}
	byStop := make(map[transit.StopID]*agg)
	for _, e := range members {
		a := byStop[e.Stop]
		if a == nil {
			a = &agg{}
			byStop[e.Stop] = a
		}
		a.n++
		a.total += e.Score
	}
	for stop, a := range byStop {
		c.Candidates = append(c.Candidates, Candidate{
			Stop:     stop,
			P:        float64(a.n) / float64(len(members)),
			AvgScore: a.total / float64(a.n),
		})
	}
	sort.Slice(c.Candidates, func(i, j int) bool {
		ci, cj := c.Candidates[i], c.Candidates[j]
		if ci.P != cj.P {
			return ci.P > cj.P
		}
		if ci.AvgScore != cj.AvgScore {
			return ci.AvgScore > cj.AvgScore
		}
		return ci.Stop < cj.Stop
	})
	return c
}
