// Package stage is the backend's Fig. 4 processing pipeline as five
// instrumented steps over the algorithm packages' own types:
// per-sample matching, per-bus-stop co-clustering, per-trip ML
// mapping, observation extraction, and traffic estimation. A Pipeline
// holds the databases, one counter set per step, one hook and one
// clock; the backend's ingest kernel composes the steps,
// running the four CPU-bound ones from many goroutines at once.
package stage

import (
	"context"
	"sync/atomic"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/core/cluster"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/traffic"
	"busprobe/internal/core/tripmap"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/transit"
)

// Names lists the stages in pipeline order; Metrics rows and Hook calls
// carry exactly these names.
var Names = [...]string{"match", "cluster", "map", "extract", "estimate"}

// Each stage's index into Names and Pipeline.stages.
const (
	iMatch = iota
	iCluster
	iMap
	iExtract
	iEstimate
)

// Metrics is a point-in-time snapshot of one stage's counters.
type Metrics struct {
	Stage      string `json:"stage"`
	Runs       int64  `json:"runs"`
	ItemsIn    int64  `json:"itemsIn"`
	ItemsOut   int64  `json:"itemsOut"`
	Dropped    int64  `json:"dropped"`
	DurationNs int64  `json:"durationNs"`
}

// Duration returns the stage's cumulative run time.
func (m Metrics) Duration() time.Duration { return time.Duration(m.DurationNs) }

// Hook observes one completed stage run (counters + duration). The
// context is the run's request context — it carries the trip's trace
// ID, which is how the observability layer turns stage runs into
// spans. Hooks must be safe for concurrent use: the batch-ingest path
// runs stages from many goroutines. Hooks must not block; they run on
// the ingest hot path.
type Hook func(ctx context.Context, stage string, itemsIn, itemsOut, dropped int, d time.Duration)

// instrument is one stage's counters. They are atomics so concurrent
// stage runs never block each other — or a Metrics reader — on a lock.
type instrument struct {
	runs       atomic.Int64
	itemsIn    atomic.Int64
	itemsOut   atomic.Int64
	dropped    atomic.Int64
	durationNs atomic.Int64
}

// Merge sums per-stage snapshots by stage name, preserving the order in
// which names first appear. A sharded deployment merges its shards'
// pipelines with it: every shard reports the same stage names, so the
// result has one row per stage with city-wide totals and no double
// counting.
func Merge(groups ...[]Metrics) []Metrics {
	var order []string
	byName := make(map[string]*Metrics)
	for _, ms := range groups {
		for _, m := range ms {
			agg := byName[m.Stage]
			if agg == nil {
				order = append(order, m.Stage)
				cp := m
				byName[m.Stage] = &cp
				continue
			}
			agg.Runs += m.Runs
			agg.ItemsIn += m.ItemsIn
			agg.ItemsOut += m.ItemsOut
			agg.Dropped += m.Dropped
			agg.DurationNs += m.DurationNs
		}
	}
	out := make([]Metrics, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// minSpeedKmh and maxSpeedKmh bound the leg speeds Extract keeps.
const minSpeedKmh, maxSpeedKmh = 2, 90

// Config bundles what a pipeline needs beyond its databases.
type Config struct {
	// Hook, when non-nil, observes every stage run.
	Hook Hook
	// Clock times every stage run: the durations in Metrics and the ones
	// handed to Hook are differences of its readings. Nil reads the wall
	// clock; tests pass a clock.Fake for determinism.
	Clock clock.Clock
}

// Pipeline is the five Fig. 4 stages over one fingerprint database, one
// transit database and one traffic estimator. Match, Cluster, Map and
// Extract only read the two databases, which are immutable, so any
// number may run concurrently; Estimate writes the internally
// synchronized estimator.
type Pipeline struct {
	fpdb    *fingerprint.DB
	transit *transit.DB
	est     *traffic.Estimator
	cfg     Config
	stages  [len(Names)]instrument
}

// New assembles a pipeline over the fingerprint database, transit
// database, and traffic estimator.
func New(fpdb *fingerprint.DB, tdb *transit.DB, est *traffic.Estimator, cfg Config) *Pipeline {
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	return &Pipeline{fpdb: fpdb, transit: tdb, est: est, cfg: cfg}
}

// Metrics snapshots every stage's counters in pipeline order.
func (p *Pipeline) Metrics() []Metrics {
	out := make([]Metrics, len(Names))
	for i := range out {
		st := &p.stages[i]
		out[i] = Metrics{
			Stage:      Names[i],
			Runs:       st.runs.Load(),
			ItemsIn:    st.itemsIn.Load(),
			ItemsOut:   st.itemsOut.Load(),
			Dropped:    st.dropped.Load(),
			DurationNs: st.durationNs.Load(),
		}
	}
	return out
}

// observe folds one completed run of stage i, started at start, into
// its counters and fires the hook, if any.
func (p *Pipeline) observe(ctx context.Context, i, in, out, dropped int, start time.Time) {
	d := p.cfg.Clock.Now().Sub(start)
	st := &p.stages[i]
	st.runs.Add(1)
	st.itemsIn.Add(int64(in))
	st.itemsOut.Add(int64(out))
	st.dropped.Add(int64(dropped))
	st.durationNs.Add(int64(d))
	if p.cfg.Hook != nil {
		p.cfg.Hook(ctx, Names[i], in, out, dropped, d)
	}
}

// Match is stage 1, the pipeline's hot path: per-sample Smith–Waterman
// matching against the stop fingerprint database. It returns the
// samples clearing the γ acceptance filter as cluster elements; the
// rest (len(samples) − len(result)) are dropped.
func (p *Pipeline) Match(ctx context.Context, samples []probe.Sample) []cluster.Element {
	start := p.cfg.Clock.Now()
	var elems []cluster.Element
	for _, s := range samples {
		if mt, ok := p.fpdb.Match(s.Fingerprint()); ok {
			elems = append(elems, cluster.Element{TimeS: s.TimeS, Stop: mt.Stop, Score: mt.Score})
		}
	}
	p.observe(ctx, iMatch, len(samples), len(elems), len(samples)-len(elems), start)
	return elems
}

// Cluster is stage 2: Eq. 1 per-bus-stop co-clustering of one trip's
// time-ordered matched samples into stop-visit candidates.
func (p *Pipeline) Cluster(ctx context.Context, elems []cluster.Element) ([]cluster.Cluster, error) {
	start := p.cfg.Clock.Now()
	clusters, err := cluster.Sequence(elems, cluster.DefaultParams())
	p.observe(ctx, iCluster, len(elems), len(clusters), 0, start)
	return clusters, err
}

// Map is stage 3: per-trip maximum-likelihood mapping of the cluster
// sequence onto stops under bus-route order constraints (Eq. 2).
func (p *Pipeline) Map(ctx context.Context, clusters []cluster.Cluster) ([]tripmap.Visit, error) {
	start := p.cfg.Clock.Now()
	res, err := tripmap.Resolve(clusters, p.transit)
	p.observe(ctx, iMap, len(clusters), len(res.Visits), 0, start)
	return res.Visits, err
}

// Extract is stage 4: consecutive visit pairs become per-leg traffic
// observations (BTT = arrive(next) − depart(prev), §III-D), attributed
// to the route best supporting the visit sequence. Pairs no route
// serves in order and travel times implying speeds outside
// [minSpeedKmh, maxSpeedKmh] are discarded as mapping noise and
// counted in the second result.
func (p *Pipeline) Extract(ctx context.Context, visits []tripmap.Visit) ([]traffic.Observation, int) {
	start := p.cfg.Clock.Now()
	obs, discarded := p.extract(visits)
	p.observe(ctx, iExtract, len(visits), len(obs), discarded, start)
	return obs, discarded
}

func (p *Pipeline) extract(visits []tripmap.Visit) (obs []traffic.Observation, discarded int) {
	if len(visits) < 2 {
		return nil, 0
	}
	routes := p.RankRoutesByVisitSupport(visits)
	net := p.transit.Network()
	for i := 0; i+1 < len(visits); i++ {
		from, to := visits[i], visits[i+1]
		if from.Stop == to.Stop {
			continue // repeated resolution of the same stop; no motion
		}
		btt := to.ArriveS - from.DepartS
		if btt <= 0 {
			discarded++
			continue
		}
		leg, ok := p.LegBetween(routes, from.Stop, to.Stop)
		if !ok {
			discarded++
			continue
		}
		speedKmh := leg.LengthM / btt * 3.6
		if speedKmh < minSpeedKmh || speedKmh > maxSpeedKmh {
			discarded++
			continue
		}
		obs = append(obs, traffic.Observation{
			Segments:   leg.Segments,
			LengthM:    leg.LengthM,
			FreeKmh:    LegFreeKmh(net, leg),
			BTTSeconds: btt,
			TimeS:      to.ArriveS,
		})
	}
	return obs, discarded
}

// RankRoutesByVisitSupport orders the routes by how many of the trip's
// consecutive visit pairs they serve in order, so legs are attributed
// to the route the rider most plausibly took.
func (p *Pipeline) RankRoutesByVisitSupport(visits []tripmap.Visit) []*transit.Route {
	type scored struct {
		rt *transit.Route
		n  int
	}
	all := p.transit.Routes()
	ranked := make([]scored, 0, len(all))
	for _, rt := range all {
		n := 0
		for i := 0; i+1 < len(visits); i++ {
			fi := rt.StopIndex(visits[i].Stop)
			ti := rt.StopIndex(visits[i+1].Stop)
			if fi >= 0 && ti > fi {
				n++
			}
		}
		ranked = append(ranked, scored{rt: rt, n: n})
	}
	// Stable selection sort by descending support keeps determinism and
	// is tiny (route counts are single digits).
	for i := 0; i < len(ranked); i++ {
		best := i
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].n > ranked[best].n {
				best = j
			}
		}
		ranked[i], ranked[best] = ranked[best], ranked[i]
	}
	out := make([]*transit.Route, len(ranked))
	for i, s := range ranked {
		out[i] = s.rt
	}
	return out
}

// LegBetween finds the road stretch between two stops on the
// best-supported route serving them in order. The pair may skip
// intermediate stops (nobody tapped there): LegBetween concatenates the
// intermediate legs, implementing the §III-D merge.
func (p *Pipeline) LegBetween(routes []*transit.Route, from, to transit.StopID) (transit.Leg, bool) {
	net := p.transit.Network()
	for _, rt := range routes {
		fi := rt.StopIndex(from)
		if fi < 0 {
			continue
		}
		ti := rt.StopIndex(to)
		if ti <= fi {
			continue
		}
		return rt.LegBetween(net, fi, ti), true
	}
	return transit.Leg{}, false
}

// LegFreeKmh returns the harmonic-mean free-flow speed over a leg
// (total length / total free-flow time), which is the free speed the
// Eq. 3 "a" term needs for a multi-segment stretch.
func LegFreeKmh(net *road.Network, leg transit.Leg) float64 {
	var timeS float64
	for _, sid := range leg.Segments {
		timeS += net.Segment(sid).FreeTravelS()
	}
	if timeS <= 0 {
		return 0
	}
	return leg.LengthM / timeS * 3.6
}

// EstimateOutput counts the folded and rejected observations of one
// Estimate run. It is also the scatter wire's answer and the recorded
// scatter outcome in snapshots.
type EstimateOutput struct {
	Folded    int
	Discarded int
}

// Estimate is stage 5: observations fold into the Bayesian per-segment
// traffic estimator (Eq. 4). Individually invalid observations are
// dropped, never failing the trip.
func (p *Pipeline) Estimate(ctx context.Context, obs []traffic.Observation) EstimateOutput {
	start := p.cfg.Clock.Now()
	var out EstimateOutput
	for _, o := range obs {
		if err := p.est.AddObservation(o); err != nil {
			out.Discarded++
			continue
		}
		out.Folded++
	}
	p.observe(ctx, iEstimate, len(obs), out.Folded, out.Discarded, start)
	return out
}
