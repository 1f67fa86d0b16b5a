package server

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"busprobe/internal/obs"

	"busprobe/internal/core/fingerprint"
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

	// merged caches the fan-in traffic merge and the shard snapshots it
	// was built from (nil for a shard that did not answer). Reads fetch
	// outside mergeMu, so one stalled shard costs each read at most its
	// own timeout; under mergeMu a read only moves the cache forward,
	// shard by shard (mergedTraffic.supersedes). fetches numbers the
	// completed fan-outs so a read can tell whether its fetch began
	// after a cached part's fetch returned.
	mergeMu sync.Mutex
	merged  mergedTraffic //lint:guardedby mergeMu
	fetches atomic.Uint64
}

// mergedTraffic is one cached fan-in merge: the coordinator-versioned
// snapshot, the shard snapshots it was built from, and for each the
// fetch sequence number at which its fan-out returned.
type mergedTraffic struct {
	snap  *traffic.Snapshot
	parts []*traffic.Snapshot
	done  []uint64
}

// supersedes reports whether part — shard i's answer to a fan-out that
// began at fetch sequence start — is newer than the cached part. A fetch
// that began after the cached one returned saw a later shard state, even
// across a shard restart that reset its version sequence. Overlapping
// fetches are ordered by the shard's version, an answer beating no
// answer, so a slow reader never merges older parts over a newer merge
// and a reader always serves a part at least as new as the one it
// fetched.
func (m *mergedTraffic) supersedes(i int, part *traffic.Snapshot, start uint64) bool {
	old := m.parts[i]
	switch {
	case part == old:
		return false
	case start >= m.done[i]:
		return true
	case part == nil || old == nil:
		return part != nil
	default:
		return part.Version > old.Version
	}
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
	c, err := newCoordinator(tdb, fpdb, shards)
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
		b.part = c.part
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
	c, err := newCoordinator(tdb, fpdb, len(addrs))
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
func newCoordinator(tdb *transit.DB, fpdb *fingerprint.DB, shards int) (*Coordinator, error) {
	if tdb == nil || fpdb == nil {
		return nil, fmt.Errorf("server: nil transit or fingerprint DB")
	}
	if shards < 1 {
		return nil, fmt.Errorf("server: coordinator needs at least one shard")
	}
	part, err := transit.PartitionRoutes(tdb, shards)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{tdb: tdb, fpdb: fpdb, part: part, merged: mergedTraffic{
		snap:  traffic.EmptySnapshot(),
		parts: make([]*traffic.Snapshot, shards),
		done:  make([]uint64, shards),
	}}
	c.health = make([]shardHealth, shards)
	for i := range c.health {
		c.health[i] = shardHealth{healthy: true, lastProbe: "unprobed"}
	}
	return c, nil
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
// conditional GET (usually 304, answered with the shard's cached
// snapshot) per remote one — and the merge only re-runs when a fetched
// part supersedes a cached one, so the derived reads and watch pollers
// reuse one merge instead of re-merging per read. The fan-out runs
// outside mergeMu, so reads never queue behind one another's shard
// calls; under the lock a read only adopts the parts that supersede the
// cache, so it serves every write acknowledged before it began and the
// cache never moves back. The coordinator keeps its own version sequence
// over the merged map (shard versions are local sequences and cannot be
// combined into one), maintained by traffic.NextSnapshot so deltas
// account for segments a dead shard dropped out of the view.
func (c *Coordinator) TrafficSnapshot() *traffic.Snapshot {
	fetched := make([]*traffic.Snapshot, len(c.shards))
	start := c.fetches.Load()
	for i, sh := range c.shards {
		snap, err := sh.Traffic(context.Background()) //lint:allow ctxpropagate reads stay ctx-free: shard read RPCs carry their own transport timeout
		c.noteShard(i, err)
		fetched[i] = snap
	}
	done := c.fetches.Add(1)

	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	parts, doneAt := slices.Clone(c.merged.parts), slices.Clone(c.merged.done)
	moved := false
	for i, p := range fetched {
		if c.merged.supersedes(i, p, start) {
			parts[i], doneAt[i], moved = p, done, true
		}
	}
	if !moved {
		return c.merged.snap
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
	c.merged = mergedTraffic{snap: traffic.NextSnapshot(c.merged.snap, m), parts: parts, done: doneAt}
	return c.merged.snap
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
		row := footprint(c.part, i)
		row.Addr = sh.Addr()
		row.Remote = row.Addr != LocalAddr
		row.Healthy = h.healthy
		row.LastProbe = h.lastProbe
		row.Stats = stats
		out[i] = row
	}
	return out
}

// footprint is shard i's partition row: its index and the routes, stops
// and road segments it owns.
func footprint(part *transit.Partition, i int) ShardStatus {
	return ShardStatus{Shard: i, Routes: len(part.RoutesIn(i)), Stops: part.StopsIn(i), Segments: part.SegmentsIn(i)}
}
