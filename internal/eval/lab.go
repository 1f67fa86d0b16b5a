package eval

import (
	"fmt"

	"busprobe/internal/core/traffic"
	harness "busprobe/internal/lab"
	"busprobe/internal/phone"
	"busprobe/internal/sim"
	"busprobe/internal/transit"
)

// Lab is the evaluation suite's view of a simulated deployment. The
// bundle itself — world, backend configuration, surveyed fingerprint
// DB — and the corpus replay paths live in the shared harness package
// (harness.Deployment), so experiments, benchmarks, and the conformance
// scenarios all run against the same plumbing; Lab adds only the
// evaluation-specific helpers.
type Lab struct {
	*harness.Deployment
}

// NewLab assembles a lab over a world configuration.
func NewLab(worldCfg sim.WorldConfig, surveyRuns int) (*Lab, error) {
	d, err := harness.NewDeployment(worldCfg, surveyRuns)
	if err != nil {
		return nil, err
	}
	return &Lab{Deployment: d}, nil
}

// DefaultLab builds the paper-scale deployment (7 km x 4 km, 8 routes).
func DefaultLab() (*Lab, error) {
	return NewLab(sim.DefaultWorldConfig(), 4)
}

// SmallLab builds a compact deployment for fast test runs.
func SmallLab() (*Lab, error) {
	return NewLab(sim.SmallWorldConfig(), 4)
}

// freshHorizonS is how stale an estimate may be (snapshot time minus
// UpdatedS) and still describe "current" traffic in the evaluation
// figures. Estimates are stamped with the end of the update window
// their observations fell in, and a phone only uploads a trip after the
// conclusion idle timeout, so even a just-delivered report is already
// ~IdleTimeout old on arrival; allow two refresh periods of genuine
// staleness on top of that unavoidable delivery lag.
func (l *Lab) freshHorizonS() float64 {
	return 2*traffic.DefaultPeriodS + phone.DefaultIdleTimeoutS
}

// routeOrDie fetches a route that must exist in the lab's plan.
func (l *Lab) route(id transit.RouteID) (*transit.Route, error) {
	rt := l.World.Transit.Route(id)
	if rt == nil {
		return nil, fmt.Errorf("eval: route %s not in plan", id)
	}
	return rt, nil
}
