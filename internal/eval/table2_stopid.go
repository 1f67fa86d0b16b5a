package eval

import (
	"fmt"

	"busprobe/internal/core/cluster"
	"busprobe/internal/core/tripmap"
	"busprobe/internal/geo"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

// meanLegLength returns a route's average inter-stop distance, the unit
// of Table II's "N stops away" error buckets.
func meanLegLength(l *Lab, rt *transit.Route) float64 {
	var sum float64
	for i := 0; i < rt.NumLegs(); i++ {
		sum += rt.Leg(l.World.Net, i).LengthM
	}
	if rt.NumLegs() == 0 {
		return 500
	}
	return sum / float64(rt.NumLegs())
}

// RouteIdentification is one row of Table II.
type RouteIdentification struct {
	Route     transit.RouteID
	Total     int // evaluated stop visits (stops x runs with samples)
	Errors    int
	ErrorRate float64
	OneStop   int // errors one stop away from the truth
	TwoStop   int // errors two stops away
	Farther   int // errors more than two stops away (or off-route)
}

// TableIIStopIdentification regenerates Table II: bus stop
// identification accuracy per route. Each route is ridden `runs` times
// (the paper collected 8 rounds, 1 for the DB and 7 for evaluation);
// every ride runs the full matching → clustering → trip-mapping
// pipeline, and each resolved visit is compared against the true stop.
// The paper reports error rates below 8% with the vast majority of
// errors only one stop away.
func TableIIStopIdentification(l *Lab, runs int, seed uint64) (Report, error) {
	if runs <= 0 {
		return Report{}, fmt.Errorf("eval: non-positive run count")
	}
	rng := stats.NewRNG(seed).Fork("table2")
	tdb := l.World.Transit

	var rows []RouteIdentification
	var totAll, errAll int
	for _, rt := range tdb.Routes() {
		row := RouteIdentification{Route: rt.ID}
		for r := 0; r < runs; r++ {
			start := 7*3600 + rng.Range(0, 10*3600)
			elems, elemTruth, truth, err := simulateMatchedRide(l, rt, start, rng)
			if err != nil {
				return Report{}, err
			}
			if len(elems) == 0 {
				continue
			}
			clusters, err := cluster.Sequence(elems, cluster.DefaultParams())
			if err != nil {
				return Report{}, err
			}
			mapped, err := tripmap.Resolve(clusters, tdb)
			if err != nil {
				return Report{}, err
			}
			owner := clusterTruthIndex(clusters, elems, elemTruth)
			spacing := meanLegLength(l, rt)
			for ci, v := range mapped.Visits {
				trueVisit := truth[owner[ci]]
				row.Total++
				if v.Stop == trueVisit.Stop {
					continue
				}
				row.Errors++
				// Distance in stop-spacing units: a wrong stop on a
				// crossing route can still be the physically adjacent
				// one, which is what "1 stop away" means on the ground.
				dM := geo.DistM(tdb.Stop(v.Stop).Pos, tdb.Stop(trueVisit.Stop).Pos)
				switch {
				case dM <= 1.5*spacing:
					row.OneStop++
				case dM <= 2.5*spacing:
					row.TwoStop++
				default:
					row.Farther++
				}
			}
		}
		if row.Total > 0 {
			row.ErrorRate = float64(row.Errors) / float64(row.Total)
		}
		totAll += row.Total
		errAll += row.Errors
		rows = append(rows, row)
	}
	if totAll == 0 {
		return Report{}, fmt.Errorf("eval: no visits evaluated")
	}

	tbl := newTable("Route", "total", "errors", "error rate", "1 stop", "2 stops", ">2")
	var worst float64
	oneStopAll, errDistAll := 0, 0
	for _, row := range rows {
		tbl.addRowf("%s|%d|%d|%.1f%%|%d|%d|%d",
			row.Route, row.Total, row.Errors, 100*row.ErrorRate,
			row.OneStop, row.TwoStop, row.Farther)
		if row.ErrorRate > worst {
			worst = row.ErrorRate
		}
		oneStopAll += row.OneStop
		errDistAll += row.Errors
	}
	overall := float64(errAll) / float64(totAll)
	oneStopShare := 0.0
	if errDistAll > 0 {
		oneStopShare = float64(oneStopAll) / float64(errDistAll)
	}
	text := tbl.String() + fmt.Sprintf(
		"\noverall error rate %.1f%% (paper: <8%% per route); %d/%d errors are one stop away\n",
		100*overall, oneStopAll, errDistAll)

	return Report{
		Name: fmt.Sprintf("Table II — bus stop identification accuracy (%d runs/route)", runs),
		Text: text,
		Metrics: map[string]float64{
			"overall_error_rate": overall,
			"worst_route_rate":   worst,
			"one_stop_share":     oneStopShare,
			"total_evaluated":    float64(totAll),
		},
	}, nil
}
