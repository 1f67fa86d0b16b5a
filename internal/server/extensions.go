package server

import (
	"fmt"

	"busprobe/internal/core/arrival"
	"busprobe/internal/core/reconstruct"
	"busprobe/internal/core/region"
	"busprobe/internal/transit"
)

// The §VI extension reads. Each is a pure function of the transit
// database and ONE traffic snapshot: it loads api.TrafficSnapshot()
// exactly once, so a response never mixes segment estimates from two
// map versions, and it is the only implementation — a monolithic
// Backend, an N-shard Coordinator and a remote coordinator tier answer
// identically because they publish identical snapshots.

// RegionModel infers the §VI regional traffic model from the current
// per-segment estimates. Inference only reads the map, so it works off
// the published snapshot without a copy.
func RegionModel(api API) (*region.Model, error) {
	return region.Infer(api.Transit().Network(), api.TrafficSnapshot().Estimates, region.DefaultConfig())
}

// ReconstructTrip rebuilds the continuous bus trajectory of a processed
// trip from its mapped visits: the route best supporting the visit
// sequence provides the geometry, and visits that break that route's
// order (mapping noise) are dropped, mirroring the observation stage's
// discard policy. At least two ordered visits must survive.
func (b *Backend) ReconstructTrip(visits []VisitRecord) (*reconstruct.Trajectory, error) {
	if len(visits) < 2 {
		return nil, fmt.Errorf("server: need at least two visits")
	}
	routes := b.pipe.RankRoutesByVisitSupport(visits)
	if len(routes) == 0 {
		return nil, fmt.Errorf("server: no routes in transit DB")
	}
	rt := routes[0]
	// Keep the longest order-consistent subsequence on the chosen route
	// (greedy: visits must strictly advance along it).
	var kept []VisitRecord
	prevIdx := -1
	for _, v := range visits {
		idx := rt.StopIndex(v.Stop)
		if idx <= prevIdx {
			continue
		}
		kept = append(kept, v)
		prevIdx = idx
	}
	if len(kept) < 2 {
		return nil, fmt.Errorf("server: fewer than two visits fit route %s", rt.ID)
	}
	return reconstruct.Build(b.transit.Network(), rt, kept)
}

// PredictArrivals forecasts arrival times at the stops after fromIdx of
// a route, for a bus departing that stop at departS, from the current
// traffic snapshot.
func PredictArrivals(api API, routeID transit.RouteID, fromIdx int, departS float64) ([]arrival.Prediction, error) {
	tdb := api.Transit()
	rt := tdb.Route(routeID)
	if rt == nil {
		return nil, fmt.Errorf("server: unknown route %q", routeID)
	}
	pred, err := arrival.NewPredictor(tdb.Network(), arrival.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return pred.Predict(rt, fromIdx, departS, api.TrafficSnapshot())
}

// RouteStatus summarizes one route's current conditions; it is also the
// /v1/routes row.
type RouteStatus struct {
	Route       transit.RouteID `json:"route"`
	Stops       int             `json:"stops"`
	LengthM     float64         `json:"lengthM"`
	EndToEndS   float64         `json:"endToEndS"`   // predicted full-route travel time right now
	CoveredFrac float64         `json:"coveredFrac"` // share of the drive time backed by live data
}

// RouteStatuses returns every route's live end-to-end travel time at the
// given departure time, the rider-facing digest of the traffic map. All
// routes are predicted against the same snapshot.
func RouteStatuses(api API, departS float64) ([]RouteStatus, error) {
	tdb, src := api.Transit(), api.TrafficSnapshot()
	pred, err := arrival.NewPredictor(tdb.Network(), arrival.DefaultConfig())
	if err != nil {
		return nil, err
	}
	net := tdb.Network()
	out := make([]RouteStatus, 0, tdb.NumRoutes())
	for _, rt := range tdb.Routes() {
		preds, err := pred.Predict(rt, 0, departS, src)
		if err != nil {
			return nil, err
		}
		last := preds[len(preds)-1]
		var lengthM, covered float64
		for i := 0; i < rt.NumLegs(); i++ {
			lengthM += rt.Leg(net, i).LengthM
		}
		for _, p := range preds {
			covered += p.CoveredFrac
		}
		out = append(out, RouteStatus{
			Route:       rt.ID,
			Stops:       rt.NumStops(),
			LengthM:     lengthM,
			EndToEndS:   last.ArriveS - departS,
			CoveredFrac: covered / float64(len(preds)),
		})
	}
	return out, nil
}
