package eval

import (
	"fmt"

	"busprobe/internal/core/cluster"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

// Fig5EpsilonSweep regenerates Fig. 5: clustering accuracy as the
// co-clustering threshold ε sweeps 0 → 2 in 0.1 steps, over controlled
// rides on one route (the paper used route 243). The paper's curve is a
// wide plateau — accuracy tolerates ε ∈ [~0.3, ~1.3] and degrades beyond
// — with ε = 0.6 the deployed choice.
func Fig5EpsilonSweep(l *Lab, routeID transit.RouteID, rides int, seed uint64) (Report, error) {
	if rides <= 0 {
		return Report{}, fmt.Errorf("eval: non-positive ride count")
	}
	rt, err := l.route(routeID)
	if err != nil {
		return Report{}, err
	}
	rng := stats.NewRNG(seed).Fork("fig5")

	// Pre-simulate the rides once; the sweep only re-clusters.
	type ride struct {
		elems     []cluster.Element
		elemTruth []int
		truth     []visitTruth
	}
	rideset := make([]ride, 0, rides)
	for r := 0; r < rides; r++ {
		start := 7*3600 + rng.Range(0, 10*3600)
		elems, elemTruth, truth, err := simulateMatchedRide(l, rt, start, rng)
		if err != nil {
			return Report{}, err
		}
		if len(elems) == 0 {
			continue
		}
		rideset = append(rideset, ride{elems: elems, elemTruth: elemTruth, truth: truth})
	}
	if len(rideset) == 0 {
		return Report{}, fmt.Errorf("eval: no usable rides")
	}

	params := cluster.DefaultParams()
	tbl := newTable("epsilon", "accuracy")
	metrics := make(map[string]float64)
	var bestEps, bestAcc float64
	for step := 0; step <= 20; step++ {
		eps := float64(step) * 0.1
		params.Epsilon = eps
		var acc stats.Accumulator
		for _, rd := range rideset {
			cs, err := cluster.Sequence(rd.elems, params)
			if err != nil {
				return Report{}, err
			}
			acc.Add(partitionAccuracy(cs, rd.elems, rd.elemTruth, rd.truth))
		}
		a := acc.Mean()
		tbl.addRowf("%.1f|%.3f", eps, a)
		if a > bestAcc {
			bestAcc, bestEps = a, eps
		}
		switch step {
		case 6:
			metrics["acc_0.6"] = a
		case 0:
			metrics["acc_0.0"] = a
		case 20:
			metrics["acc_2.0"] = a
		case 3:
			metrics["acc_0.3"] = a
		case 16:
			metrics["acc_1.6"] = a
		}
	}
	metrics["best_eps"] = bestEps
	metrics["best_acc"] = bestAcc

	text := tbl.String() + fmt.Sprintf(
		"\nplateau check: acc(0.6) = %.3f, best = %.3f at eps = %.1f; paper deploys eps = 0.6\n",
		metrics["acc_0.6"], bestAcc, bestEps)
	return Report{
		Name:    fmt.Sprintf("Fig. 5 — clustering accuracy vs epsilon (route %s, %d rides)", routeID, len(rideset)),
		Text:    text,
		Metrics: metrics,
	}, nil
}
