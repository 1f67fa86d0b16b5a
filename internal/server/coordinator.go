package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"busprobe/internal/obs"

	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/region"
	"busprobe/internal/core/traffic"
	"busprobe/internal/phone"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/server/stage"
	"busprobe/internal/transit"
)

// Coordinator shards the backend by city region: the transit network is
// split into route-closed groups on the region zone grid
// (transit.PartitionRoutes), and each shard is a full Backend — its own
// dedup set, stage pipeline, admission gate, trip log, and estimator —
// over the shared transit and fingerprint databases. Uploads route to
// their home shard by fingerprint pre-match; reads fan in across shards
// and merge deterministically.
//
// The coordinator dispatches through the Shard boundary, so a shard can
// be an in-process *Backend (NewCoordinator) or an independent process
// reached over the wire protocol (NewRemoteCoordinator) — the routing,
// scatter, and merge logic is identical either way, and a remote
// coordinator holds no per-trip state of its own.
//
// The merged traffic map is byte-identical to a monolithic Backend fed
// the same trips, by construction:
//
//   - Trip routing is content-deterministic, so a duplicated upload
//     lands on the same shard and dies at that shard's dedup set.
//   - Each shard computes trips against the full databases, so a trip's
//     matched visits and extracted observations are exactly the
//     monolith's.
//   - Observations scatter to the shard owning their segments under a
//     deterministic idempotency key, so each segment's report multiset
//     lives in exactly one shard and folds exactly once even when the
//     scatter crosses a wire and gets retried — and the PR 2 estimator
//     is a pure function of (report multiset, watermark), making the
//     union of shard snapshots equal to the monolith snapshot once
//     clocks advance together.
//
// Safe for concurrent use.
type Coordinator struct {
	cfg      Config
	tdb      *transit.DB
	fpdb     *fingerprint.DB
	part     *transit.Partition
	shards   []Shard
	backends []*Backend // per-shard *Backend for in-process shards, nil for remote

	// healthMu guards health, the per-shard outcome of the most recent
	// probe or fan-out call. Reads merge around unhealthy shards
	// (degraded-but-alive) instead of wedging the city-wide view.
	healthMu sync.Mutex
	health   []shardHealth //lint:guardedby healthMu

	// merged caches the fan-in traffic merge keyed by the shard version
	// vector that built it: a read whose fetched vector matches serves
	// the cached snapshot untouched, and only a moved shard version (or
	// a health transition) triggers a re-merge. mergeMu serializes the
	// re-merge itself — readers that lose the TryLock race serve the
	// current cache instead of queueing, so reads never pile up behind
	// one another.
	mergeMu sync.Mutex
	merged  atomic.Pointer[mergedTraffic]
}

// mergedTraffic is one cached fan-in merge: the coordinator-versioned
// snapshot plus the shard version vector it was built from.
type mergedTraffic struct {
	snap *traffic.Snapshot
	vec  []shardVersion
}

// shardVersion is one entry of the merge's version vector: whether the
// shard answered, and at which published version.
type shardVersion struct {
	ok      bool
	version uint64
}

// vecEqual reports whether two version vectors describe the same shard
// states.
func vecEqual(a, b []shardVersion) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shardHealth is the coordinator's view of one shard's liveness.
type shardHealth struct {
	healthy   bool
	lastProbe string
}

var (
	_ phone.Uploader      = (*Coordinator)(nil)
	_ phone.BatchUploader = (*Coordinator)(nil)
)

// NewCoordinator assembles a coordinator with the given number of
// in-process region shards over the shared transit and fingerprint
// databases. One shard degenerates to a monolith behind the same API.
// Shards may outnumber route groups; the surplus shards simply stay
// empty.
func NewCoordinator(cfg Config, tdb *transit.DB, fpdb *fingerprint.DB, shards int) (*Coordinator, error) {
	c, err := newCoordinator(cfg, tdb, fpdb, shards)
	if err != nil {
		return nil, err
	}
	for i := 0; i < shards; i++ {
		b, err := newBackend(cfg, tdb, fpdb, i)
		if err != nil {
			return nil, err
		}
		c.backends = append(c.backends, b)
		c.shards = append(c.shards, localShard{b})
	}
	c.registerObs(cfg.Obs)
	// Installed after every shard exists: the scatter can target any
	// peer's estimator.
	for _, b := range c.backends {
		b.obsOwner = segmentOwner(c.part)
		b.obsScatter = c.scatter
	}
	return c, nil
}

// NewRemoteCoordinator assembles a stateless coordinator tier over
// already-running shard processes, one per address in shard order. The
// coordinator rebuilds the same deterministic partition the shard
// processes derived from the shared databases, routes uploads by
// fingerprint pre-match exactly as the in-process coordinator does, and
// merges reads across the wire. It holds no trip state: any number of
// coordinator processes can front the same shard tier.
func NewRemoteCoordinator(cfg Config, tdb *transit.DB, fpdb *fingerprint.DB, addrs []string) (*Coordinator, error) {
	c, err := newCoordinator(cfg, tdb, fpdb, len(addrs))
	if err != nil {
		return nil, err
	}
	for _, addr := range addrs {
		c.backends = append(c.backends, nil)
		c.shards = append(c.shards, NewRemoteShard(addr))
	}
	c.registerObs(cfg.Obs)
	return c, nil
}

// newCoordinator builds the shard-implementation-independent core: the
// deterministic route partition and the health table.
func newCoordinator(cfg Config, tdb *transit.DB, fpdb *fingerprint.DB, shards int) (*Coordinator, error) {
	if tdb == nil || fpdb == nil {
		return nil, fmt.Errorf("server: nil transit or fingerprint DB")
	}
	if shards < 1 {
		return nil, fmt.Errorf("server: coordinator needs at least one shard")
	}
	part, err := transit.PartitionRoutes(tdb, shards, region.DefaultConfig().ZoneM)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, tdb: tdb, fpdb: fpdb, part: part}
	c.health = make([]shardHealth, shards)
	for i := range c.health {
		c.health[i] = shardHealth{healthy: true, lastProbe: "unprobed"}
	}
	return c, nil
}

// segmentOwner builds a backend's obsOwner over the route partition:
// the shard owning an observation's road segments (a leg's segments all
// belong to one route, hence one shard). Unowned segments fold on the
// home shard.
func segmentOwner(part *transit.Partition) func(traffic.Observation) (int, bool) {
	return func(o traffic.Observation) (int, bool) {
		if len(o.Segments) > 0 {
			return part.SegmentShard(o.Segments[0])
		}
		return 0, false
	}
}

// scatter forwards one cross-shard observation group to its owner.
func (c *Coordinator) scatter(ctx context.Context, owner int, key string, obsGroup []traffic.Observation) (stage.EstimateOutput, error) {
	out, err := c.shards[owner].Scatter(ctx, key, obsGroup)
	c.noteShard(owner, err)
	return out, err
}

// noteShard records the outcome of a call to shard i in the health
// table.
func (c *Coordinator) noteShard(i int, err error) {
	h := shardHealth{healthy: true, lastProbe: "ok"}
	if err != nil {
		h = shardHealth{healthy: false, lastProbe: err.Error()}
	}
	c.healthMu.Lock()
	c.health[i] = h
	c.healthMu.Unlock()
}

// shardHealthAt snapshots shard i's health row.
func (c *Coordinator) shardHealthAt(i int) shardHealth {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	return c.health[i]
}

// ProbeShards checks every shard's readiness concurrently — a shard that
// answers a Stats call is ready — records the outcomes in the health
// table served by GET /v1/shards, and returns the joined errors of the
// shards that failed (nil when all are ready).
func (c *Coordinator) ProbeShards(ctx context.Context) error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			_, err := sh.Stats(ctx)
			if err != nil {
				err = fmt.Errorf("shard %d (%s): %w", i, sh.Addr(), err)
			}
			c.noteShard(i, err)
			errs[i] = err
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Config returns the serving configuration.
func (c *Coordinator) Config() Config { return c.cfg }

// Transit returns the transit database shared by every shard.
func (c *Coordinator) Transit() *transit.DB { return c.tdb }

// Partition exposes the route-closed shard assignment.
func (c *Coordinator) Partition() *transit.Partition { return c.part }

// Shards exposes the underlying in-process shard backends (read-mostly;
// used by evaluations and tests). Entries are nil for remote shards.
func (c *Coordinator) Shards() []*Backend { return c.backends }

// ShardFor routes a trip to its home shard by fingerprint pre-match: the
// first sample whose best match clears γ names a stop, and that stop's
// shard takes the trip. The decision depends only on trip content, so a
// duplicated upload routes identically and is absorbed by the home
// shard's dedup set. Trips matching nothing fall back to shard 0 (they
// produce no visits anywhere, so only the counter placement varies).
// With one shard the answer is necessarily 0, so the monolith-as-
// coordinator pays no pre-match per upload.
func (c *Coordinator) ShardFor(trip probe.Trip) int {
	if len(c.shards) == 1 {
		return 0
	}
	for _, s := range trip.Samples {
		m, ok := c.fpdb.Match(s.Fingerprint())
		if !ok {
			continue
		}
		if sh, ok := c.part.StopShard(m.Stop); ok {
			return sh
		}
	}
	return 0
}

// ProcessTrip routes one trip to its home shard and ingests it there.
func (c *Coordinator) ProcessTrip(ctx context.Context, trip probe.Trip) (ProcessedTrip, error) {
	return c.shards[c.ShardFor(trip)].ProcessTrip(ctx, trip)
}

// Upload implements phone.Uploader.
func (c *Coordinator) Upload(ctx context.Context, trip probe.Trip) error {
	_, err := c.ProcessTrip(ctx, trip)
	return err
}

// IngestBatch ingests a batch with per-shard admission: each home
// shard's sub-batch passes that shard's gate, so a saturated region
// sheds its own trips (ErrOverloaded, surfaced as 429s that feed the
// phone-side retry/backoff machinery) while the rest of the city keeps
// ingesting. The batch fans out to its home shards (one goroutine per
// non-empty shard) and per-trip results reassemble in input order.
// Within a shard trips keep their relative order, so per-shard dedup and
// fold semantics match serial ingestion. The context rides the fan-out
// into every shard's admission and stage runs.
func (c *Coordinator) IngestBatch(ctx context.Context, trips []probe.Trip) []TripResult {
	byShard := make([][]int, len(c.shards))
	for i, trip := range trips {
		sh := c.ShardFor(trip)
		byShard[sh] = append(byShard[sh], i)
	}
	res := make([]TripResult, len(trips))
	var wg sync.WaitGroup
	for sh, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, idxs []int) {
			defer wg.Done()
			sub := make([]probe.Trip, len(idxs))
			for k, i := range idxs {
				sub[k] = trips[i]
			}
			for k, r := range c.shards[sh].IngestBatch(ctx, sub) {
				res[idxs[k]] = r
			}
		}(sh, idxs)
	}
	wg.Wait()
	return res
}

// UploadBatch implements phone.BatchUploader over IngestBatch.
func (c *Coordinator) UploadBatch(ctx context.Context, trips []probe.Trip) []error {
	errs := make([]error, len(trips))
	for i, r := range c.IngestBatch(ctx, trips) {
		errs[i] = r.Err
	}
	return errs
}

// Stats sums the shards' counters. Each trip is counted by exactly one
// shard (its home), so the sum never double-counts. Unreachable shards
// contribute nothing (degraded reads).
func (c *Coordinator) Stats() Stats {
	var out Stats
	for i, sh := range c.shards {
		s, err := sh.Stats(context.Background()) //lint:allow ctxpropagate reads stay ctx-free: shard read RPCs carry their own transport timeout
		c.noteShard(i, err)
		if err != nil {
			continue
		}
		out.add(s)
	}
	return out
}

// StageMetrics merges the shards' per-stage counters by stage name
// (stage.Merge), yielding one city-wide row per stage plus the summed
// admission pseudo-stage. Unreachable shards are skipped.
func (c *Coordinator) StageMetrics() []stage.Metrics {
	groups := make([][]stage.Metrics, 0, len(c.shards))
	for i, sh := range c.shards {
		ms, err := sh.StageMetrics(context.Background()) //lint:allow ctxpropagate reads stay ctx-free: shard read RPCs carry their own transport timeout
		c.noteShard(i, err)
		if err != nil {
			continue
		}
		groups = append(groups, ms)
	}
	return stage.Merge(groups...)
}

// TrafficSnapshot fans in across shards and returns the merged,
// coordinator-versioned traffic snapshot. The scatter gives every
// segment exactly one owning estimator, so the union is disjoint and
// merge order cannot matter; an unreachable shard's segments drop out of
// the merged view until it returns (degraded-but-alive reads). The
// fan-out itself is cheap — a pointer load per in-process shard, a
// conditional GET (usually 304) per remote one — and the merge only
// re-runs when the fetched shard version vector differs from the cached
// one, so the derived reads and watch pollers reuse one merge instead
// of re-merging per read. The coordinator keeps its own version sequence
// over the merged map (shard versions are local sequences and cannot be
// combined into one), maintained by traffic.NextSnapshot so deltas
// account for segments a dead shard dropped out of the view.
func (c *Coordinator) TrafficSnapshot() *traffic.Snapshot {
	parts := make([]*traffic.Snapshot, len(c.shards))
	vec := make([]shardVersion, len(c.shards))
	for i, sh := range c.shards {
		snap, err := sh.Traffic(context.Background()) //lint:allow ctxpropagate reads stay ctx-free: shard read RPCs carry their own transport timeout
		c.noteShard(i, err)
		if err != nil {
			continue
		}
		parts[i] = snap
		vec[i] = shardVersion{ok: true, version: snap.Version}
	}
	cached := c.merged.Load()
	if cached != nil && vecEqual(cached.vec, vec) {
		return cached.snap
	}
	if cached != nil {
		if !c.mergeMu.TryLock() {
			// Another reader is already re-merging this state change;
			// serve the current map instead of queueing behind it.
			return cached.snap
		}
	} else {
		c.mergeMu.Lock()
	}
	defer c.mergeMu.Unlock()
	if cached = c.merged.Load(); cached != nil && vecEqual(cached.vec, vec) {
		return cached.snap
	}
	m := make(map[road.SegmentID]traffic.Estimate)
	for _, p := range parts {
		if p == nil {
			continue
		}
		for sid, est := range p.Estimates {
			m[sid] = est
		}
	}
	prev := traffic.EmptySnapshot()
	if cached != nil {
		prev = cached.snap
	}
	next := traffic.NextSnapshot(prev, m)
	c.merged.Store(&mergedTraffic{snap: next, vec: vec})
	return next
}

// Advance drives every shard's estimator clock, keeping the shard
// watermarks in lockstep with a monolithic deployment's.
func (c *Coordinator) Advance(nowS float64) {
	for i, sh := range c.shards {
		c.noteShard(i, sh.Advance(context.Background(), nowS)) //lint:allow ctxpropagate clock ticks must reach every shard even when a caller's request ctx has expired
	}
}

// registerObs projects the coordinator's partition footprint into the
// metrics registry: shard count plus per-shard route/stop/segment
// gauges, labeled consistently with the per-shard stage series.
func (c *Coordinator) registerObs(core *obs.Core) {
	if core == nil {
		return
	}
	reg := core.Registry
	reg.GaugeFunc("busprobe_shards", "Region shards behind the coordinator.",
		func() float64 { return float64(len(c.shards)) })
	for i := range c.shards {
		i := i
		sl := obs.Label{Name: "shard", Value: strconv.Itoa(i)}
		reg.GaugeFunc("busprobe_shard_routes", "Routes owned by the shard.",
			func() float64 { return float64(len(c.part.RoutesIn(i))) }, sl)
		reg.GaugeFunc("busprobe_shard_stops", "Stops owned by the shard.",
			func() float64 { return float64(c.part.StopsIn(i)) }, sl)
		reg.GaugeFunc("busprobe_shard_segments", "Road segments owned by the shard.",
			func() float64 { return float64(c.part.SegmentsIn(i)) }, sl)
		reg.GaugeFunc("busprobe_shard_healthy", "1 when the shard's last probe or call succeeded.",
			func() float64 {
				if c.shardHealthAt(i).healthy {
					return 1
				}
				return 0
			}, sl)
	}
}

// ShardStatuses reports each shard's partition footprint, topology
// (address, local vs remote), health, and counters. An unreachable
// shard still gets a row — with Healthy false and the probe error in
// LastProbe — so operators see the full topology at a glance.
func (c *Coordinator) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(c.shards))
	for i, sh := range c.shards {
		stats, err := sh.Stats(context.Background()) //lint:allow ctxpropagate reads stay ctx-free: shard read RPCs carry their own transport timeout
		c.noteShard(i, err)
		h := c.shardHealthAt(i)
		out[i] = ShardStatus{
			Shard:     i,
			Addr:      sh.Addr(),
			Remote:    sh.Addr() != LocalAddr,
			Healthy:   h.healthy,
			LastProbe: h.lastProbe,
			Routes:    len(c.part.RoutesIn(i)),
			Stops:     c.part.StopsIn(i),
			Segments:  c.part.SegmentsIn(i),
			Stats:     stats,
		}
	}
	return out
}
