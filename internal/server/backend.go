// Package server implements the backend of the system (Fig. 4): trip
// ingestion (in-process and HTTP, serial and concurrent batch), the
// stage-oriented trajectory-mapping pipeline (per-sample matching →
// per-bus-stop clustering → per-trip mapping → observation extraction
// → estimation, see internal/server/stage), traffic estimation over
// the mapped legs, and the query API serving the resulting traffic
// map.
package server

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"busprobe/internal/cellular"
	"busprobe/internal/clock"
	"busprobe/internal/core/cluster"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/traffic"
	"busprobe/internal/core/tripmap"
	"busprobe/internal/obs"
	"busprobe/internal/probe"
	"busprobe/internal/road"
	"busprobe/internal/server/stage"
	"busprobe/internal/transit"
)

// Sentinel upload-rejection errors. The HTTP layer maps them to status
// codes and row codes (the rejections table); in-process callers
// distinguish them with errors.Is instead of string matching. Each wraps the transport-neutral
// probe sentinel, so phone-side retry policy can classify rejections
// without importing this package.
var (
	// ErrInvalidTrip marks uploads failing probe.Trip validation.
	ErrInvalidTrip = fmt.Errorf("server: %w", probe.ErrInvalidTrip)
	// ErrDuplicateTrip marks re-uploads of an already-ingested trip ID.
	ErrDuplicateTrip = fmt.Errorf("server: %w", probe.ErrDuplicateTrip)
	// ErrOverloaded marks uploads shed by the admission gate.
	ErrOverloaded = fmt.Errorf("server: %w", probe.ErrOverloaded)
)

// Config bundles the backend's tunables, defaulting to the paper's
// deployed values.
type Config struct {
	// Scoring are the Smith–Waterman weights.
	Scoring fingerprint.Scoring
	// Gamma is the per-sample acceptance threshold.
	Gamma float64
	// Cluster are the Eq. 1 co-clustering constants.
	Cluster cluster.Params
	// Model is the Eq. 3 transit traffic model.
	Model traffic.Model
	// PeriodS is the traffic-map refresh period (T = 5 min).
	PeriodS float64
	// DriftVarPerS is the estimator's process-noise rate.
	DriftVarPerS float64
	// MinSpeedKmh / MaxSpeedKmh bound plausible leg observations;
	// out-of-range travel times are discarded as noise.
	MinSpeedKmh, MaxSpeedKmh float64
	// MaxInflightBatches bounds concurrently admitted batch ingests;
	// beyond it the admission gate sheds the batch (HTTP 429 with
	// Retry-After). 0 disables shedding.
	MaxInflightBatches int
	// RequestTimeoutS bounds each HTTP request's handling time; slow
	// requests get 503. 0 disables the per-request timeout.
	RequestTimeoutS float64
	// Obs, when non-nil, is the unified observability core: backend
	// counters and per-stage durations register into its metrics
	// registry, and every stage run of a traced trip emits a span. Nil
	// disables observability at zero cost. Every backend registers its
	// series under its shard index ("0" for a standalone Backend).
	Obs *obs.Core
	// StageHook, when non-nil, observes every pipeline stage run
	// (counters + duration). It must be safe for concurrent use.
	StageHook stage.Hook
	// OnlineUpdate enables Fig. 4's online database path: confidently
	// mapped stop visits refresh that stop's fingerprint, letting the
	// database track radio-environment drift without re-surveying.
	OnlineUpdate bool
	// OnlineUpdateMinConf is the visit confidence required before its
	// samples may touch the database.
	OnlineUpdateMinConf float64
	// OnlineUpdateMinSamples is the minimum sample count of the visit's
	// cluster before an update is considered.
	OnlineUpdateMinSamples int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Scoring:      fingerprint.DefaultScoring(),
		Gamma:        fingerprint.DefaultGamma,
		Cluster:      cluster.DefaultParams(),
		Model:        traffic.DefaultModel(),
		PeriodS:      traffic.DefaultPeriodS,
		DriftVarPerS: traffic.DefaultDriftVarPerS,
		MinSpeedKmh:  2,
		MaxSpeedKmh:  90,

		OnlineUpdate:           false, // opt in; offline survey is authoritative by default
		OnlineUpdateMinConf:    0.9,
		OnlineUpdateMinSamples: 3,
	}
}

// Stats counts the backend's work.
type Stats struct {
	TripsReceived    int
	TripsRejected    int
	DuplicateTrips   int
	SamplesReceived  int
	SamplesMatched   int
	SamplesDiscarded int
	Clusters         int
	VisitsMapped     int
	Observations     int
	ObsDiscarded     int
	// BatchesShed / TripsShed count batch uploads (and the trips they
	// carried) refused by the admission gate under load.
	BatchesShed int
	TripsShed   int
}

// add accumulates a counter delta: one trip's (whose shed counters are
// zero) or, in a coordinator's sum, a whole shard's.
func (s *Stats) add(d Stats) {
	s.TripsReceived += d.TripsReceived
	s.TripsRejected += d.TripsRejected
	s.DuplicateTrips += d.DuplicateTrips
	s.SamplesReceived += d.SamplesReceived
	s.SamplesMatched += d.SamplesMatched
	s.SamplesDiscarded += d.SamplesDiscarded
	s.Clusters += d.Clusters
	s.VisitsMapped += d.VisitsMapped
	s.Observations += d.Observations
	s.ObsDiscarded += d.ObsDiscarded
	s.BatchesShed += d.BatchesShed
	s.TripsShed += d.TripsShed
}

// ProcessedTrip reports how one trip moved through the pipeline.
type ProcessedTrip struct {
	TripID       string
	Samples      int
	Matched      int
	Clusters     int
	Visits       []VisitRecord
	Observations int
}

// VisitRecord is one resolved stop visit of a processed trip.
type VisitRecord = tripmap.Visit

// Backend is the traffic-monitoring server core. It implements
// phone.Uploader (and phone.BatchUploader) for in-process deployments;
// the HTTP layer wraps it for networked ones. Safe for concurrent use.
type Backend struct {
	cfg     Config
	transit *transit.DB
	fpdb    *fingerprint.DB
	est     *traffic.Estimator
	pipe    *stage.Pipeline

	// The backend's mutable state is split across independent locks so
	// ingestion never serializes against query traffic: dedupMu guards
	// the duplicate-suppression set and the trip log handle, statsMu
	// guards the work counters, and the estimator and fingerprint DB
	// carry their own internal synchronization.
	dedupMu sync.Mutex
	seen    map[string]bool //lint:guardedby dedupMu
	tripLog TripLog         //lint:guardedby dedupMu

	// checkpointMu is the checkpoint consistency cut: every trip holds
	// the read side across admission (log append) AND fold, so under the
	// write side no trip can be on one side of a segment boundary with
	// its estimator effect on the other. Received cross-shard scatters
	// take scatterMu instead (Checkpoint holds both; FoldScatter must
	// never block on checkpointMu or two shards checkpointing while
	// scattering to each other would deadlock).
	checkpointMu sync.RWMutex
	// checkpointFlight serializes whole Checkpoint calls (the periodic
	// snapshotter against the drain's final one).
	checkpointFlight sync.Mutex

	statsMu sync.Mutex
	stats   Stats //lint:guardedby statsMu

	// gate bounds concurrently admitted batch ingests (nil = unbounded);
	// admission holds the per-stage-style counters for /v1/pipeline.
	gate      chan struct{}
	admission stage.Metrics //lint:guardedby statsMu

	// Scatter topology, set before any ingestion (by a Coordinator or a
	// shard process) and read-only afterwards. obsOwner names the shard
	// index owning an observation's road segments; shardIdx is this
	// backend's own index. Observations owned elsewhere are handed to
	// obsScatter as one group per owner under a deterministic
	// idempotency key, so a trip whose best-matching route lives on
	// another shard still folds into the city-wide map exactly once —
	// even when the scatter crosses a wire and gets retried. A nil
	// obsOwner folds everything locally (monolithic deployment).
	shardIdx   int
	obsOwner   func(traffic.Observation) (int, bool)
	obsScatter func(ctx context.Context, owner int, key string, obs []traffic.Observation) (stage.EstimateOutput, error)

	// scatterMu guards scatterSeen — the idempotency record of cross-
	// shard scatter groups folded into THIS backend's estimator — and
	// scatterLog, the store these received groups persist to. A group's
	// key is derived from (trip ID, owner shard), so a retried scatter
	// RPC — or a peer replaying its log after a restart — returns the
	// recorded outcome instead of double-counting reports. FoldScatter
	// holds scatterMu across dup-check → append → fold → record, making
	// the group's durability and its estimator effect atomic against a
	// checkpoint (which seals and exports under the same lock).
	scatterMu   sync.Mutex
	scatterSeen map[string]stage.EstimateOutput //lint:guardedby scatterMu
	scatterLog  *StoreLog                       //lint:guardedby scatterMu

	// scatterPending records cross-shard groups THIS backend computed
	// whose delivery to their owner failed: key → (owner, group). They
	// are retried before every checkpoint export and after recovery,
	// and the still-undelivered remainder rides inside the snapshot
	// state (PersistentState.Pending) — once a checkpoint covers the
	// originating trip's record, compaction may delete the only other
	// copy, so without this record a transient peer outage would turn
	// into a permanently missing fold.
	scatterPending map[string]pendingScatter //lint:guardedby scatterMu

	// obsShard is the shard label this backend's series and spans carry
	// in cfg.Obs (set at construction, read-only afterwards).
	obsShard string
}

// NewBackend assembles a standalone backend over the transit database
// and the pre-built stop fingerprint database.
func NewBackend(cfg Config, tdb *transit.DB, fpdb *fingerprint.DB) (*Backend, error) {
	return newBackend(cfg, tdb, fpdb, 0)
}

// newBackend is the one constructor: a standalone backend is shard 0,
// and a coordinator's or shard process's backend is built directly under
// its own index, which is also the label its observability series carry.
func newBackend(cfg Config, tdb *transit.DB, fpdb *fingerprint.DB, shardIdx int) (*Backend, error) {
	if tdb == nil || fpdb == nil {
		return nil, fmt.Errorf("server: nil transit or fingerprint DB")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinSpeedKmh <= 0 || cfg.MaxSpeedKmh <= cfg.MinSpeedKmh {
		return nil, fmt.Errorf("server: bad speed bounds [%v, %v]", cfg.MinSpeedKmh, cfg.MaxSpeedKmh)
	}
	if cfg.MaxInflightBatches < 0 {
		return nil, fmt.Errorf("server: negative max inflight batches %d", cfg.MaxInflightBatches)
	}
	if cfg.RequestTimeoutS < 0 {
		return nil, fmt.Errorf("server: negative request timeout %v", cfg.RequestTimeoutS)
	}
	est, err := traffic.NewEstimator(cfg.Model, cfg.PeriodS, cfg.DriftVarPerS)
	if err != nil {
		return nil, err
	}
	var gate chan struct{}
	if cfg.MaxInflightBatches > 0 {
		gate = make(chan struct{}, cfg.MaxInflightBatches)
	}
	b := &Backend{
		gate:           gate,
		admission:      stage.Metrics{Stage: admissionStage},
		cfg:            cfg,
		transit:        tdb,
		fpdb:           fpdb,
		est:            est,
		seen:           make(map[string]bool),
		scatterSeen:    make(map[string]stage.EstimateOutput),
		scatterPending: make(map[string]pendingScatter),
		shardIdx:       shardIdx,
	}
	// The one instrumentation wiring point: with observability on, the
	// configured hook is composed with the histogram + span emitter and
	// the pipeline times its stages on the core's clock, so stage
	// durations, histograms and spans are readings of one clock.
	hook, clk := cfg.StageHook, clock.Clock(nil)
	if cfg.Obs != nil {
		hook, clk = b.registerObs(strconv.Itoa(shardIdx)), cfg.Obs.Clock
	}
	b.pipe = stage.New(fpdb, tdb, est, stage.Config{
		Cluster:     cfg.Cluster,
		MinSpeedKmh: cfg.MinSpeedKmh,
		MaxSpeedKmh: cfg.MaxSpeedKmh,
		Hook:        hook,
		Clock:       clk,
	})
	return b, nil
}

// Config returns the backend configuration.
func (b *Backend) Config() Config { return b.cfg }

// Transit returns the transit database.
func (b *Backend) Transit() *transit.DB { return b.transit }

// FingerprintDB returns the stop fingerprint database.
func (b *Backend) FingerprintDB() *fingerprint.DB { return b.fpdb }

// admissionStage names the admission gate's row in StageMetrics.
const admissionStage = "admission"

// StageMetrics snapshots the per-stage instrumentation counters in
// pipeline order, with the batch admission gate appended as a
// pseudo-stage (runs = gate decisions, items in = trips offered, items
// out = trips admitted, dropped = trips shed).
func (b *Backend) StageMetrics() []stage.Metrics {
	ms := b.pipe.Metrics()
	b.statsMu.Lock()
	adm := b.admission
	b.statsMu.Unlock()
	return append(ms, adm)
}

// AdmitBatch asks the admission gate for a slot for a batch of n trips.
// On success, the caller must invoke the returned release exactly once
// when the ingest finishes. A saturated gate sheds the batch: ok is
// false and the shed counters are updated.
func (b *Backend) AdmitBatch(n int) (release func(), ok bool) {
	release, ok = func() {}, true
	if b.gate != nil {
		select {
		case b.gate <- struct{}{}:
			release = func() { <-b.gate }
		default:
			release, ok = nil, false
		}
	}
	b.statsMu.Lock()
	b.admission.Runs++
	b.admission.ItemsIn += int64(n)
	if ok {
		b.admission.ItemsOut += int64(n)
	} else {
		b.admission.Dropped += int64(n)
		b.stats.BatchesShed++
		b.stats.TripsShed += n
	}
	b.statsMu.Unlock()
	return release, ok
}

// Stats returns a snapshot of the work counters. Counters are applied
// in one critical section per trip, so a snapshot never shows a
// half-processed trip.
func (b *Backend) Stats() Stats {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	return b.stats
}

// Upload implements phone.Uploader: validate, deduplicate, process.
func (b *Backend) Upload(ctx context.Context, trip probe.Trip) error {
	_, err := b.ProcessTrip(ctx, trip)
	return err
}

// ProcessTrip ingests one trip: a batch of one through the ingest
// kernel, so nothing about a trip's life differs between the single
// upload, the batch and log replay.
func (b *Backend) ProcessTrip(ctx context.Context, trip probe.Trip) (ProcessedTrip, error) {
	r := b.ingest(ctx, []probe.Trip{trip}, 1)[0]
	return r.Trip, r.Err
}

// ingest is the backend's one write path; every entry point (ProcessTrip,
// ProcessTrips, IngestBatch, recovery replay) is a shell over it. It
// runs three phases under one checkpoint read lock, so a checkpoint cut
// falls between ingest calls, never between a trip's log record and its
// fold:
//
//  1. ordered admit — validate, dedup, log append, in input order, so
//     duplicate IDs within the batch resolve first-occurrence-wins;
//  2. compute — the CPU-bound stages, inline in input order when there
//     is one worker, across a pool otherwise. workers <= 0 means
//     GOMAXPROCS; OnlineUpdate forces one, because a later trip's
//     matching must observe earlier trips' fingerprint refreshes;
//  3. ordered fold — estimator updates and counters land in input order,
//     which makes the outcome independent of workers.
//
// The context bounds admission and carries the trace; with observability
// on, every admitted trip's run is bracketed by a "trip" span emitted
// after its per-stage spans.
func (b *Backend) ingest(ctx context.Context, trips []probe.Trip, workers int) []TripResult {
	res := make([]TripResult, len(trips))
	b.checkpointMu.RLock()
	defer b.checkpointMu.RUnlock()

	work := make([]tripWork, len(trips))
	for i, trip := range trips {
		w := &work[i]
		w.ctx, w.start = b.traceTrip(ctx, trip.ID)
		res[i].Err = b.admit(w.ctx, trip)
	}

	// From here to the fold, a non-nil res[i].Err marks a rejected trip.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if b.cfg.OnlineUpdate {
		workers = 1
	}
	var next atomic.Int64
	computeNext := func() bool {
		i := int(next.Add(1)) - 1
		if i >= len(trips) {
			return false
		}
		if res[i].Err == nil {
			b.compute(trips[i], &work[i])
		}
		return true
	}
	var wg sync.WaitGroup
	for n := min(workers, len(trips)); n > 1; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for computeNext() {
			}
		}()
	}
	for computeNext() {
	}
	wg.Wait()

	for i := range work {
		if res[i].Err != nil {
			continue
		}
		w := &work[i]
		b.fold(w)
		b.endTripSpan(w.ctx, w.start, trips[i].ID)
		res[i] = TripResult{Trip: w.out, Err: w.err}
	}
	return res
}

// admit validates, deduplicates, and logs one upload. It takes
// only the dedup lock, so admission never contends with stats readers
// or estimator queries. Rejection counters are applied in a single
// critical section, keeping Stats() trip-atomic.
func (b *Backend) admit(ctx context.Context, trip probe.Trip) error {
	if err := ctx.Err(); err != nil {
		// The caller is gone; do not take the trip (it was never
		// acknowledged, so the phone's retry layer still owns it).
		return err
	}
	if err := trip.Validate(); err != nil {
		b.statsMu.Lock()
		b.stats.TripsReceived++
		b.stats.TripsRejected++
		b.statsMu.Unlock()
		return fmt.Errorf("%w: %v", ErrInvalidTrip, err)
	}
	b.dedupMu.Lock()
	dup := b.seen[trip.ID]
	if !dup {
		b.seen[trip.ID] = true
	}
	tripLog := b.tripLog
	b.dedupMu.Unlock()
	if dup {
		b.statsMu.Lock()
		b.stats.TripsReceived++
		b.stats.DuplicateTrips++
		b.statsMu.Unlock()
		return fmt.Errorf("%w %s", ErrDuplicateTrip, trip.ID)
	}
	// Persist accepted uploads before processing; an append failure
	// fails the upload so the client retries rather than silently
	// losing durability.
	if tripLog != nil {
		if err := tripLog.Append(ctx, trip); err != nil {
			// The trip never became durable: un-mark it so the client's
			// retry is admitted. A phantom ID here would reject the
			// retry as a duplicate for the backend's lifetime — and a
			// snapshot would persist the phantom across restarts,
			// losing the trip forever. Still under checkpointMu's read
			// side, so no checkpoint can export between mark and unmark.
			b.dedupMu.Lock()
			delete(b.seen, trip.ID)
			b.dedupMu.Unlock()
			return err
		}
	}
	return nil
}

// tripWork carries one trip through the ingest kernel's phases: its
// traced context and span start from admission, its pipeline products
// from the (possibly concurrent) compute phase, its outcome from the
// ordered fold.
type tripWork struct {
	ctx          context.Context
	start        time.Time
	out          ProcessedTrip
	obs          []traffic.Observation
	obsDiscarded int
	delta        Stats
	err          error
}

// compute runs the CPU-bound stages — matching, clustering, mapping,
// observation extraction — for one admitted trip. It touches no
// backend-wide mutable state except the fingerprint DB (internally
// synchronized, and written only on the opt-in online-update path), so
// any number of computes may run concurrently.
func (b *Backend) compute(trip probe.Trip, w *tripWork) {
	w.out = ProcessedTrip{TripID: trip.ID, Samples: len(trip.Samples)}
	w.delta.TripsReceived = 1
	w.delta.SamplesReceived = len(trip.Samples)

	// Stage 1: per-sample matching with the γ filter.
	elems := b.pipe.Match(w.ctx, trip.Samples)
	w.out.Matched = len(elems)
	w.delta.SamplesMatched = len(elems)
	w.delta.SamplesDiscarded = len(trip.Samples) - len(elems)
	if len(elems) == 0 {
		return
	}

	// Stage 2: per-bus-stop clustering.
	clusters, err := b.pipe.Cluster(w.ctx, elems)
	if err != nil {
		w.err = err
		return
	}
	w.out.Clusters = len(clusters)

	// Stage 3: per-trip ML mapping under route constraints.
	w.out.Visits, w.err = b.pipe.Map(w.ctx, clusters)
	if w.err != nil {
		return
	}

	// Fig. 4's online database path: high-confidence visits refresh
	// their stop's fingerprint.
	if b.cfg.OnlineUpdate {
		b.onlineUpdate(trip, clusters, w.out.Visits)
	}

	// Stage 4: leg travel times → traffic observations.
	w.obs, w.obsDiscarded = b.pipe.Extract(w.ctx, w.out.Visits)
	w.delta.Clusters = len(clusters)
	w.delta.VisitsMapped = len(w.out.Visits)
}

// fold applies one computed trip's effects: stage 5 (estimator
// updates), then the whole trip's counters in a single critical
// section.
//
// The trip's observations are grouped by owning shard (first-appearance
// order) and each group folds on its owner, so every segment's report
// multiset lives in exactly one estimator and the fan-in merge stays
// exact. Groups owned by this backend, by no shard, or — with no
// obsOwner installed — by definition, fold locally; the rest travel
// through obsScatter under a deterministic key, making a retried or
// replayed scatter fold-once.
func (b *Backend) fold(w *tripWork) {
	if w.err == nil {
		type group struct {
			owner int
			obs   []traffic.Observation
		}
		var groups []group
		for _, o := range w.obs {
			owner := b.shardIdx
			if b.obsOwner != nil {
				if own, ok := b.obsOwner(o); ok {
					owner = own
				}
			}
			k := slices.IndexFunc(groups, func(g group) bool { return g.owner == owner })
			if k < 0 {
				k = len(groups)
				groups = append(groups, group{owner: owner})
			}
			groups[k].obs = append(groups[k].obs, o)
		}
		var folded, discarded int
		for _, g := range groups {
			var est stage.EstimateOutput
			if g.owner == b.shardIdx {
				est = b.pipe.Estimate(w.ctx, g.obs)
			} else {
				key := scatterKey(w.out.TripID, g.owner)
				var err error
				est, err = b.obsScatter(w.ctx, g.owner, key, g.obs)
				if err != nil {
					// The owner is unreachable: the trip is already
					// admitted and logged, so its remaining
					// groups keep folding and the failure surfaces
					// to the caller. The lost group is not gone —
					// log replay re-scatters it under the same key,
					// and for the day a checkpoint covers the
					// trip's record (compaction then deletes it)
					// the group is remembered as pending: retried
					// before every export and carried inside the
					// snapshot until the owner acknowledges it. The
					// owner's idempotency record keeps folded
					// groups from doubling either way.
					b.notePendingScatter(key, g.owner, g.obs)
					w.err = fmt.Errorf("server: scatter to shard %d: %w", g.owner, err)
					continue
				}
				b.resolvePendingScatter(key)
			}
			folded += est.Folded
			discarded += est.Discarded
		}
		w.out.Observations = folded
		w.delta.Observations = folded
		w.delta.ObsDiscarded = w.obsDiscarded + discarded
	}
	b.statsMu.Lock()
	b.stats.add(w.delta)
	b.statsMu.Unlock()
}

// scatterKey derives the idempotency key of one trip's observation
// group bound for one owner shard. A trip has exactly one home shard
// and at most one group per owner, so (trip ID, owner) names the group
// uniquely — and deterministically across retries and log replays.
func scatterKey(tripID string, owner int) string {
	return tripID + "#" + strconv.Itoa(owner)
}

// pendingScatter is one cross-shard observation group awaiting
// re-delivery to its owner shard.
type pendingScatter struct {
	owner int
	obs   []traffic.Observation
}

// notePendingScatter remembers a group whose delivery failed, keyed by
// its idempotency key, for retry (RetryPendingScatters) and snapshot
// export.
func (b *Backend) notePendingScatter(key string, owner int, group []traffic.Observation) {
	b.scatterMu.Lock()
	b.scatterPending[key] = pendingScatter{owner: owner, obs: group}
	b.scatterMu.Unlock()
}

// resolvePendingScatter drops a delivered group's pending entry, if
// any — a replayed trip may re-scatter a group an imported snapshot
// still lists as pending.
func (b *Backend) resolvePendingScatter(key string) {
	b.scatterMu.Lock()
	delete(b.scatterPending, key)
	b.scatterMu.Unlock()
}

// RetryPendingScatters re-delivers cross-shard observation groups
// whose earlier delivery failed, in key order. A delivered group
// leaves the pending set and its fold lands in the stats — the
// original fold never counted it, and if the owner had in fact folded
// the "lost" delivery, its idempotency record returns that recorded
// outcome instead of doubling. A failing delivery keeps its entry for
// the next retry; entries also ride inside snapshots
// (PersistentState.Pending), so a group whose originating trip record
// has been compacted away still reaches its owner after a restart.
// Returns the number of groups still pending.
func (b *Backend) RetryPendingScatters(ctx context.Context) int {
	b.scatterMu.Lock()
	pend := make(map[string]pendingScatter, len(b.scatterPending))
	for k, p := range b.scatterPending {
		pend[k] = p
	}
	b.scatterMu.Unlock()
	if len(pend) == 0 || b.obsScatter == nil {
		return len(pend)
	}
	keys := make([]string, 0, len(pend))
	for k := range pend {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	remaining := 0
	for _, key := range keys {
		p := pend[key]
		out, err := b.obsScatter(ctx, p.owner, key, p.obs)
		if err != nil {
			remaining++
			continue
		}
		b.resolvePendingScatter(key)
		b.statsMu.Lock()
		b.stats.Observations += out.Folded
		b.stats.ObsDiscarded += out.Discarded
		b.statsMu.Unlock()
	}
	return remaining
}

// FoldScatter folds one cross-shard observation group into this
// backend's estimator, exactly once per idempotency key: a key already
// folded returns its recorded outcome without touching the estimator.
// Keys are retained for the backend's lifetime (the same order of
// growth as the trip dedup set); an empty key bypasses the record.
// With a store attached, the group is persisted (a "scatter" record in
// THIS shard's log) before folding — the originating trip lives in a
// peer's log, so without the local record a restart would lose the
// fold. An append failure aborts before the estimator is touched; the
// home shard's retry re-delivers under the same key. The whole
// sequence holds scatterMu, so a checkpoint (same lock) always cuts
// between whole groups.
func (b *Backend) FoldScatter(ctx context.Context, key string, obs []traffic.Observation) (stage.EstimateOutput, error) {
	return b.foldScatter(ctx, key, obs, true)
}

// foldScatterReplay refolds a scatter record read back from this
// shard's own log during recovery: same dedup and fold, no re-append.
func (b *Backend) foldScatterReplay(ctx context.Context, key string, obs []traffic.Observation) stage.EstimateOutput {
	out, _ := b.foldScatter(ctx, key, obs, false)
	return out
}

func (b *Backend) foldScatter(ctx context.Context, key string, obs []traffic.Observation, persist bool) (stage.EstimateOutput, error) {
	b.scatterMu.Lock()
	defer b.scatterMu.Unlock()
	if key != "" {
		if out, dup := b.scatterSeen[key]; dup {
			return out, nil
		}
	}
	if persist && b.scatterLog != nil && key != "" {
		if err := b.scatterLog.AppendScatter(ctx, key, obs); err != nil {
			return stage.EstimateOutput{}, err
		}
	}
	out := b.pipe.Estimate(ctx, obs)
	if key != "" {
		b.scatterSeen[key] = out
	}
	return out, nil
}

// onlineUpdate refreshes stop fingerprints from confidently mapped
// visits: the visit's raw samples plus the stored fingerprint form a
// pool and the medoid wins, so a drifting radio environment (tower swap,
// re-planned cells) gradually replaces the survey without losing it to
// one noisy trip.
func (b *Backend) onlineUpdate(trip probe.Trip, clusters []cluster.Cluster, mapped []tripmap.Visit) {
	// Fingerprints by sample timestamp (duplicate timestamps queue).
	byTime := make(map[float64][]cellular.Fingerprint, len(trip.Samples))
	for _, s := range trip.Samples {
		byTime[s.TimeS] = append(byTime[s.TimeS], s.Fingerprint())
	}
	take := func(t float64) (cellular.Fingerprint, bool) {
		q := byTime[t]
		if len(q) == 0 {
			return nil, false
		}
		fp := q[0]
		byTime[t] = q[1:]
		return fp, true
	}
	for i, v := range mapped {
		if i >= len(clusters) {
			break
		}
		c := clusters[i]
		if v.Confidence < b.cfg.OnlineUpdateMinConf || len(c.Elements) < b.cfg.OnlineUpdateMinSamples {
			continue
		}
		var pool []cellular.Fingerprint
		for _, e := range c.Elements {
			if fp, ok := take(e.TimeS); ok {
				pool = append(pool, fp)
			}
		}
		if len(pool) < b.cfg.OnlineUpdateMinSamples {
			continue
		}
		if cur, ok := b.fpdb.Get(v.Stop); ok {
			pool = append(pool, cur)
		}
		// Best-effort: a failed update never fails the trip.
		_ = b.fpdb.PutFromSamples(v.Stop, pool)
	}
}

// Advance drives the estimator's periodic refresh from the caller's
// clock.
func (b *Backend) Advance(nowS float64) { b.est.Advance(nowS) }

// Traffic returns the current fused estimate per covered road segment,
// as a mutable copy the caller owns: TrafficSnapshot().CloneEstimates().
// It is not part of API; it stays because the benchmark ledger times
// the clone through it.
func (b *Backend) Traffic() map[road.SegmentID]traffic.Estimate {
	return b.est.Snapshot()
}

// TrafficSnapshot returns the estimator's current published snapshot:
// an immutable, versioned value served by a lock-free pointer load.
// Callers must not mutate its maps.
func (b *Backend) TrafficSnapshot() *traffic.Snapshot {
	return b.est.View()
}

// ShardStatuses reports the backend as a single all-owning shard, so the
// monolithic and sharded deployments share one observability surface.
func (b *Backend) ShardStatuses() []ShardStatus {
	return []ShardStatus{{
		Shard:     0,
		Addr:      LocalAddr,
		Healthy:   true,
		LastProbe: "ok",
		Routes:    b.transit.NumRoutes(),
		Stops:     b.transit.NumStops(),
		Segments:  b.transit.Network().NumSegments(),
		Stats:     b.Stats(),
	}}
}
