package sim

import (
	"context"
	"errors"

	"busprobe/internal/clock"
	"fmt"
	"math"
	"sort"

	"busprobe/internal/accel"
	"busprobe/internal/cellular"
	"busprobe/internal/faults"
	"busprobe/internal/geo"
	"busprobe/internal/phone"
	"busprobe/internal/probe"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

// CampaignConfig parameterizes a data-collection campaign. The paper's
// deployment ran 2 months with 22 participants; the first stretch saw
// sparse organic ridership and the final 9 days were voucher-incentivized
// intensive riding.
type CampaignConfig struct {
	// Days is the campaign length in simulated days.
	Days int
	// Participants is the number of app-carrying riders.
	Participants int
	// SparseTripsPerDay is each participant's mean daily bus trips in
	// the organic phase.
	SparseTripsPerDay float64
	// IntensiveTripsPerDay applies from IntensiveFromDay onwards.
	IntensiveTripsPerDay float64
	// IntensiveFromDay is the zero-based first intensive day; set >=
	// Days to disable the intensive phase.
	IntensiveFromDay int
	// TickS is the simulation step.
	TickS float64
	// TrainDecoysPerDay is each participant's mean daily encounters
	// with rapid-train card readers (same beep signature, §III-B): the
	// phone hears the beeps while moving like a train, and the
	// accelerometer filter must discard them.
	TrainDecoysPerDay float64
	// UploadBatchSize > 1 buffers concluded trips and delivers them to
	// the uploader in batches of this size when the uploader implements
	// phone.BatchUploader (the backend's concurrent ingest path, or the
	// HTTP client's batch endpoint). Buffered trips reach the backend
	// in conclusion order, so the resulting estimates match immediate
	// upload — only their arrival time shifts to the flush. 0 or 1
	// uploads each trip immediately.
	UploadBatchSize int
	// Faults, when any rate is non-zero, routes every upload through a
	// seeded faults.Injector between the phones and the uploader,
	// subjecting the campaign to loss, duplication, reordering, delay,
	// and corruption. A zero Faults.Seed defaults to Seed^0xfa5.
	Faults faults.Config
	// UploadRetry, when MaxAttempts > 0, wraps the upload path in a
	// phone.RetryUploader (above the injector, so retries re-offer the
	// trip to the fault model). Backoff delays are recorded, not slept —
	// the campaign runs in simulated time.
	UploadRetry phone.RetryConfig
	// ParticipantOffset shifts every participant's global index: rider i
	// of this campaign is rider i+ParticipantOffset of the deployment,
	// with the matching device ID and RNG stream. A cohort-partitioned
	// load run (sim.StreamTrips) uses it to give each cohort's riders
	// identities disjoint from every other cohort's while still deriving
	// them all from one master seed. 0 (the default) is the identity.
	ParticipantOffset int
	// Seed drives all campaign randomness.
	Seed uint64
}

// DefaultCampaignConfig returns a scaled-down campaign preserving the
// paper's structure: sparse riding followed by 9 intensive days with 22
// participants. (Days defaults to 14 rather than the paper's ~60 to keep
// experiment runtimes modest; scale it up freely.)
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Days:                 14,
		Participants:         22,
		SparseTripsPerDay:    1.5,
		IntensiveTripsPerDay: 6,
		IntensiveFromDay:     5,
		TickS:                1,
		Seed:                 1,
	}
}

// Validate rejects broken configurations.
func (c CampaignConfig) Validate() error {
	if c.Days <= 0 || c.Participants <= 0 {
		return fmt.Errorf("sim: campaign needs days and participants: %+v", c)
	}
	if c.TickS <= 0 {
		return fmt.Errorf("sim: non-positive tick %v", c.TickS)
	}
	if c.SparseTripsPerDay < 0 || c.IntensiveTripsPerDay < 0 {
		return fmt.Errorf("sim: negative trip rates")
	}
	if c.UploadBatchSize < 0 {
		return fmt.Errorf("sim: negative upload batch size %d", c.UploadBatchSize)
	}
	if c.ParticipantOffset < 0 {
		return fmt.Errorf("sim: negative participant offset %d", c.ParticipantOffset)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.UploadRetry.MaxAttempts > 0 {
		if err := c.UploadRetry.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// StopVisit is a ground-truth record of one bus-stop service event.
type StopVisit struct {
	BusID   int
	Route   transit.RouteID
	StopIdx int
	Stop    transit.StopID
	ArriveS float64
	DepartS float64
	Beeps   int
	Skipped bool
}

// VisitObserver receives every stop visit (ground truth for
// evaluations). Nil observers are allowed.
type VisitObserver func(v StopVisit)

// CampaignStats summarizes a campaign run.
type CampaignStats struct {
	Visits           int
	SkippedVisits    int
	Beeps            int
	BusRuns          int
	ParticipantTrips int
	ScansTaken       int
	// TrainDecoys counts train-reader beep bursts delivered to (and
	// filtered by) participant phones.
	TrainDecoys int
	// BatchFlushes counts batched-upload deliveries (zero when
	// UploadBatchSize is off). UploadFailures counts trips the upload
	// path rejected for any non-duplicate reason; the three counters
	// after it break the failures down by class. UploadDuplicates counts
	// duplicate-trip rejections, which are not failures — the backend
	// already holds the trip.
	BatchFlushes     int
	UploadFailures   int
	UploadsDropped   int // injected network loss (faults.ErrDropped)
	UploadsShed      int // backend admission gate (probe.ErrOverloaded)
	UploadsInvalid   int // structural rejection (probe.ErrInvalidTrip)
	UploadDuplicates int
	// Fault-injection and retry totals, copied from the injector and
	// retry layers at the end of Run (zero when those layers are off).
	FaultTripsOffered    int
	FaultTripsDropped    int
	FaultTripsDuplicated int
	FaultTripsReordered  int
	FaultTripsDelayed    int
	FaultTripsCorrupted  int
	FaultTripsDelivered  int
	UploadRetries        int
	UploadSpoolRecovered int
	// RidingSeconds totals participant time on buses, the basis of the
	// app's energy cost.
	RidingSeconds float64
	// AppEnergyJ is the modeled energy the data-collection app consumed
	// across all participants (Table III cellular+mic profile).
	AppEnergyJ float64
}

// pState is a participant's lifecycle phase.
type pState int

const (
	pIdle pState = iota
	pWaiting
	pRiding
)

// busScanner adapts the radio deployment to the phone.Scanner interface;
// the campaign points it at the participant's current bus position
// before delivering beeps.
type busScanner struct {
	cells *cellular.Deployment
	pos   geo.XY
	cond  cellular.Condition
	rng   *stats.RNG
	scans *int
}

// ScanAt implements phone.Scanner.
func (s *busScanner) ScanAt(timeS float64) []cellular.Reading {
	*s.scans++
	return s.cells.Scan(s.pos, s.cond, s.rng)
}

// participant is one app-carrying rider.
type participant struct {
	id      int
	agent   *phone.Agent
	scanner *busScanner
	rng     *stats.RNG

	state     pState
	tripQueue []plannedTrip // today's remaining trips, time-sorted
	decoys    []float64     // today's remaining train-decoy times
	decoyRNG  *stats.RNG    // isolated so decoys never shift trip plans
	route     transit.RouteID
	boardIdx  int
	alightIdx int
	boardS    float64 // boarding time of the current ride
	device    phone.DeviceProfile
}

// plannedTrip is a scheduled future ride.
type plannedTrip struct {
	startS    float64
	route     transit.RouteID
	boardIdx  int
	alightIdx int
}

// busRun pairs a bus with its onboard participants.
type busRun struct {
	bus     *Bus
	onboard []*participant
}

// classifyUpload files one trip's delivery outcome into the campaign
// stats, preserving the error identity instead of discarding it.
// Duplicate rejections are idempotent successes, not failures.
func classifyUpload(err error, st *CampaignStats) {
	switch {
	case err == nil:
		return
	case errors.Is(err, probe.ErrDuplicateTrip):
		st.UploadDuplicates++
		return
	}
	st.UploadFailures++
	switch {
	case errors.Is(err, faults.ErrDropped):
		st.UploadsDropped++
	case errors.Is(err, probe.ErrOverloaded):
		st.UploadsShed++
	case errors.Is(err, probe.ErrInvalidTrip):
		st.UploadsInvalid++
	}
}

// batchingUploader buffers concluded trips and flushes them through a
// phone.BatchUploader in fixed-size batches, exercising the backend's
// concurrent ingest path. Trips reach the sink in conclusion order.
type batchingUploader struct {
	sink  phone.BatchUploader
	size  int
	buf   []probe.Trip
	stats *CampaignStats
}

// Upload implements phone.Uploader by buffering; delivery errors
// surface at flush time in the campaign stats.
func (u *batchingUploader) Upload(ctx context.Context, trip probe.Trip) error {
	u.buf = append(u.buf, trip)
	if len(u.buf) >= u.size {
		u.flush(ctx)
	}
	return nil
}

// flush delivers the buffered trips as one batch, classifying each
// trip's outcome into the campaign stats.
func (u *batchingUploader) flush(ctx context.Context) {
	if len(u.buf) == 0 {
		return
	}
	u.stats.BatchFlushes++
	for _, err := range u.sink.UploadBatch(ctx, u.buf) {
		classifyUpload(err, u.stats)
	}
	u.buf = u.buf[:0]
}

// countingUploader classifies immediate (non-batched) uploads into the
// campaign stats on their way to the sink.
type countingUploader struct {
	sink  phone.Uploader
	stats *CampaignStats
}

// Upload implements phone.Uploader.
func (u *countingUploader) Upload(ctx context.Context, trip probe.Trip) error {
	err := u.sink.Upload(ctx, trip)
	classifyUpload(err, u.stats)
	return err
}

// Campaign orchestrates a full data-collection run over a world,
// delivering concluded participant trips to the uploader (the backend).
// Not safe for concurrent use.
type Campaign struct {
	w        *World
	cfg      CampaignConfig
	uploader phone.Uploader
	observer VisitObserver

	rng    *stats.RNG
	busSeq int
	buses  []*busRun
	// nextSpawn tracks the next scheduled departure per route.
	nextSpawn map[transit.RouteID]float64
	parts     []*participant
	stats     CampaignStats
	// batcher buffers uploads when UploadBatchSize is configured and
	// the uploader supports batch ingest.
	batcher *batchingUploader
	// injector / retrier are the optional fault-injection and retry
	// layers of the upload chain (agents → batcher → retrier →
	// injector → uploader).
	injector *faults.Injector
	retrier  *phone.RetryUploader

	// MinuteHook, when set, is invoked once per simulated minute with
	// the current time — the attachment point for live evaluations
	// (periodic traffic-map snapshots, backend clock driving).
	MinuteHook func(tS float64)
}

// NewCampaign prepares a campaign. observer may be nil.
func NewCampaign(w *World, cfg CampaignConfig, uploader phone.Uploader, observer VisitObserver) (*Campaign, error) {
	if w == nil || uploader == nil {
		return nil, fmt.Errorf("sim: nil world or uploader")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Campaign{
		w:         w,
		cfg:       cfg,
		uploader:  uploader,
		observer:  observer,
		rng:       stats.NewRNG(cfg.Seed).Fork("campaign"),
		nextSpawn: make(map[transit.RouteID]float64),
	}
	// Assemble the upload chain inside-out: uploader ← injector ←
	// retrier ← batcher/counter ← agents. The retry layer sits above
	// the injector so every retry re-offers the trip to the fault
	// model (a fresh coin flip, like a fresh radio transmission).
	sink := uploader
	if cfg.Faults.Enabled() {
		fcfg := cfg.Faults
		if fcfg.Seed == 0 {
			fcfg.Seed = cfg.Seed ^ 0xfa5
		}
		inj, err := faults.NewInjector(fcfg, sink)
		if err != nil {
			return nil, err
		}
		c.injector = inj
		sink = inj
	}
	if cfg.UploadRetry.MaxAttempts > 0 {
		// Backoff delays are recorded by the policy but not slept: the
		// campaign runs in simulated time.
		ret, err := phone.NewRetryUploader(cfg.UploadRetry, sink,
			func(context.Context, float64) error { return nil })
		if err != nil {
			return nil, err
		}
		c.retrier = ret
		sink = ret
	}
	agentSink := sink
	if cfg.UploadBatchSize > 1 {
		bsink, ok := sink.(phone.BatchUploader)
		if !ok {
			return nil, fmt.Errorf("sim: UploadBatchSize set but uploader %T has no batch path", sink)
		}
		c.batcher = &batchingUploader{sink: bsink, size: cfg.UploadBatchSize, stats: &c.stats}
		agentSink = c.batcher
	} else {
		agentSink = &countingUploader{sink: sink, stats: &c.stats}
	}
	for i := 0; i < cfg.Participants; i++ {
		// The global index keys both the identity and the randomness, so
		// rider gi behaves identically whether simulated in one campaign
		// or as part of an offset cohort.
		gi := i + cfg.ParticipantOffset
		prng := c.rng.Fork(fmt.Sprintf("participant-%d", gi))
		sc := &busScanner{cells: w.Cells, rng: prng.Fork("scan"), scans: &c.stats.ScansTaken}
		agent, err := phone.NewAgent(phone.DefaultAgentConfig(fmt.Sprintf("dev-%02d", gi)), sc, agentSink)
		if err != nil {
			return nil, err
		}
		device := phone.HTCSensation
		if gi%2 == 1 {
			device = phone.NexusOne
		}
		c.parts = append(c.parts, &participant{
			id: i, agent: agent, scanner: sc, rng: prng,
			decoyRNG: prng.Fork("decoys"), device: device,
		})
	}
	return c, nil
}

// Run executes the whole campaign. The context cancels the run between
// days and rides every upload, so an aborted campaign stops promptly
// and in a consistent state (no half-simulated day).
func (c *Campaign) Run(ctx context.Context) (CampaignStats, error) {
	for day := 0; day < c.cfg.Days; day++ {
		if err := ctx.Err(); err != nil {
			return c.stats, err
		}
		if err := c.runDay(ctx, day); err != nil {
			return c.stats, err
		}
		if c.batcher != nil {
			c.batcher.flush(ctx) // bound the buffer to one day's trips
		}
	}
	for _, p := range c.parts {
		p.agent.Flush(ctx) //lint:allow errcheckio Agent.Flush returns no error; per-trip failures are counted in CampaignStats
	}
	if c.batcher != nil {
		c.batcher.flush(ctx)
	}
	// End-of-campaign recovery: drain the retry spool, then deliver the
	// injector's held (delayed / still-reordered) trips.
	if c.retrier != nil {
		c.retrier.FlushSpool(ctx)
	}
	if c.injector != nil {
		c.injector.Flush(ctx) //lint:allow errcheckio Injector.Flush returns no error; delivery failures land in the fault stats
	}
	c.collectFaultStats()
	return c.stats, nil
}

// collectFaultStats copies the injector and retry counters into the
// campaign summary.
func (c *Campaign) collectFaultStats() {
	if c.injector != nil {
		fs := c.injector.Stats()
		c.stats.FaultTripsOffered = fs.Offered
		c.stats.FaultTripsDropped = fs.Dropped
		c.stats.FaultTripsDuplicated = fs.Duplicated
		c.stats.FaultTripsReordered = fs.Reordered
		c.stats.FaultTripsDelayed = fs.Delayed
		c.stats.FaultTripsCorrupted = fs.Corrupted
		c.stats.FaultTripsDelivered = fs.Delivered
	}
	if c.retrier != nil {
		rs := c.retrier.Stats()
		c.stats.UploadRetries = rs.Retries
		c.stats.UploadSpoolRecovered = rs.SpoolRecovered
	}
}

// weatherOfDay returns the day's frozen weather in [-1, 1].
func (c *Campaign) weatherOfDay(day int) float64 {
	r := stats.NewRNG(c.cfg.Seed ^ uint64(day)*0x9e3779b97f4a7c15).Fork("weather")
	return r.Range(-1, 1)
}

// tripsPerDay returns the phase-dependent ride rate.
func (c *Campaign) tripsPerDay(day int) float64 {
	if day >= c.cfg.IntensiveFromDay {
		return c.cfg.IntensiveTripsPerDay
	}
	return c.cfg.SparseTripsPerDay
}

// runDay simulates one service day.
func (c *Campaign) runDay(ctx context.Context, day int) error {
	dayStart := float64(day)*clock.DayS + clock.ServiceStartS
	dayEnd := float64(day)*clock.DayS + clock.ServiceEndS
	weather := c.weatherOfDay(day)

	// Stagger the first departures and plan participant trips.
	for i, rt := range c.w.Transit.Routes() {
		c.nextSpawn[rt.ID] = dayStart + float64(i*97)
	}
	for _, p := range c.parts {
		c.planDay(p, day)
	}

	spawnCutoff := dayEnd - 3600 // no departures in the last hour
	lastAgentTick := 0.0
	for t := dayStart; t < dayEnd || len(c.buses) > 0; t += c.cfg.TickS {
		if t > dayEnd+2*3600 {
			return fmt.Errorf("sim: buses still active 2h past service end on day %d", day)
		}
		if t < spawnCutoff {
			c.spawnBuses(t)
		}
		c.startWaiting(t)
		if err := c.tickBuses(t, weather); err != nil {
			return err
		}
		if t-lastAgentTick >= 60 {
			for _, p := range c.parts {
				p.agent.Tick(ctx, t)
			}
			if c.MinuteHook != nil {
				c.MinuteHook(t)
			}
			lastAgentTick = t
		}
	}
	// Midnight: conclude any dangling trips and reset waiting riders.
	for _, p := range c.parts {
		p.agent.Tick(ctx, float64(day+1)*clock.DayS)
		if p.state == pWaiting {
			p.state = pIdle
		}
	}
	return nil
}

// planDay schedules the participant's rides (and train decoys) for the
// day.
func (c *Campaign) planDay(p *participant, day int) {
	p.tripQueue = p.tripQueue[:0]
	p.decoys = p.decoys[:0]
	if c.cfg.TrainDecoysPerDay > 0 {
		nd := p.decoyRNG.Poisson(c.cfg.TrainDecoysPerDay)
		for k := 0; k < nd; k++ {
			p.decoys = append(p.decoys, float64(day)*clock.DayS+clock.ServiceStartS+
				p.decoyRNG.Float64()*(clock.ServiceEndS-clock.ServiceStartS-3600))
		}
		sort.Float64s(p.decoys)
	}
	n := p.rng.Poisson(c.tripsPerDay(day))
	routes := c.w.Transit.Routes()
	for i := 0; i < n; i++ {
		rt := routes[p.rng.Intn(len(routes))]
		nStops := rt.NumStops()
		board := p.rng.Intn(nStops - 1)
		rideLen := 3 + p.rng.Intn(12)
		alight := board + rideLen
		if alight > nStops-1 {
			alight = nStops - 1
		}
		start := float64(day)*clock.DayS + clock.ServiceStartS +
			p.rng.Float64()*(clock.ServiceEndS-clock.ServiceStartS-7200)
		p.tripQueue = append(p.tripQueue, plannedTrip{
			startS:    start,
			route:     rt.ID,
			boardIdx:  board,
			alightIdx: alight,
		})
	}
	sort.Slice(p.tripQueue, func(i, j int) bool {
		return p.tripQueue[i].startS < p.tripQueue[j].startS
	})
}

// startWaiting moves idle participants whose next trip is due to the
// waiting state at their boarding stop, and fires due train decoys.
func (c *Campaign) startWaiting(t float64) {
	for _, p := range c.parts {
		if p.state != pIdle {
			continue
		}
		// Train-station decoy: the phone hears card-reader beeps while
		// the accelerometer says "train"; the agent must record
		// nothing.
		for len(p.decoys) > 0 && t >= p.decoys[0] {
			decoyAt := p.decoys[0]
			p.decoys = p.decoys[1:]
			c.stats.TrainDecoys++
			p.agent.SetMobilityMode(accel.ModeTrain)
			// Station somewhere in the region.
			bbox := c.w.Net.BBox()
			p.scanner.pos = geo.XY{
				X: bbox.MinX + p.decoyRNG.Float64()*bbox.Width(),
				Y: bbox.MinY + p.decoyRNG.Float64()*bbox.Height(),
			}
			p.scanner.cond = cellular.Condition{}
			nb := 1 + p.decoyRNG.Intn(3)
			for k := 0; k < nb; k++ {
				p.agent.OnBeep(decoyAt + float64(k)*2)
			}
			p.agent.SetMobilityMode(accel.ModeStill)
		}
		if len(p.tripQueue) == 0 {
			continue
		}
		next := p.tripQueue[0]
		if t >= next.startS {
			p.tripQueue = p.tripQueue[1:]
			p.state = pWaiting
			p.route = next.route
			p.boardIdx = next.boardIdx
			p.alightIdx = next.alightIdx
		}
	}
}

// spawnBuses dispatches scheduled departures.
func (c *Campaign) spawnBuses(t float64) {
	for _, rt := range c.w.Transit.Routes() {
		for c.nextSpawn[rt.ID] <= t {
			c.nextSpawn[rt.ID] += rt.HeadwayS
			bus, err := NewBus(c.busSeq, rt, c.w.Net)
			if err != nil {
				continue // static route config; cannot fail after world build
			}
			c.busSeq++
			c.stats.BusRuns++
			br := &busRun{bus: bus}
			c.buses = append(c.buses, br)
		}
	}
}

// tickBuses advances every bus and resolves arrivals.
func (c *Campaign) tickBuses(t, weather float64) error {
	alive := c.buses[:0]
	for _, br := range c.buses {
		if br.bus.PendingArrival() {
			c.resolveVisit(br, t, weather)
		}
		arrived, err := br.bus.Advance(t, c.cfg.TickS, c.w.Field)
		if err != nil {
			return err
		}
		if arrived {
			c.resolveVisit(br, t, weather)
		}
		if br.bus.Done() {
			continue
		}
		alive = append(alive, br)
	}
	c.buses = alive
	return nil
}

// resolveVisit handles a bus arrival at a stop: boarding, alighting,
// background taps, dwell vs skip, and sample recording on every onboard
// phone.
func (c *Campaign) resolveVisit(br *busRun, t, weather float64) {
	bus := br.bus
	stopIdx := bus.StopIdx()
	stop := bus.CurrentStop()
	terminal := stopIdx == bus.Route.NumStops()-1

	// Who boards here?
	var boarding []*participant
	if !terminal {
		for _, p := range c.parts {
			if p.state == pWaiting && p.route == bus.Route.ID && p.boardIdx == stopIdx {
				boarding = append(boarding, p)
			}
		}
	}
	// Who alights here?
	var alighting []*participant
	remaining := br.onboard[:0]
	for _, p := range br.onboard {
		if p.alightIdx == stopIdx || terminal {
			alighting = append(alighting, p)
		} else {
			remaining = append(remaining, p)
		}
	}

	background := c.w.Demand.BeepsAtVisit(stop, t, c.rng)
	total := background + len(boarding) + len(alighting)
	c.stats.Visits++

	if total == 0 {
		// Nobody to serve: pass without stopping (§III-D's missing
		// stop; adjacent segments merge at the backend).
		c.stats.SkippedVisits++
		br.onboard = remaining
		_ = bus.Skip()
		c.observe(StopVisit{
			BusID: bus.ID, Route: bus.Route.ID, StopIdx: stopIdx, Stop: stop,
			ArriveS: t, DepartS: t, Skipped: true,
		})
		return
	}

	dwell := 6 + 2.0*float64(total) + math.Abs(c.rng.Norm(0, 1.5))
	beepSpan := math.Min(dwell-1, 1+2.2*float64(total))
	beeps := make([]float64, total)
	for i := range beeps {
		beeps[i] = t + 0.5 + c.rng.Float64()*beepSpan
	}
	sort.Float64s(beeps)
	c.stats.Beeps += total

	// Board first so new riders record this visit's beeps too.
	for _, p := range boarding {
		p.state = pRiding
		p.boardS = t
		p.agent.SetMobilityMode(accel.ModeBus)
	}
	br.onboard = append(remaining, boarding...)

	pos := bus.Pos()
	for _, p := range br.onboard {
		p.scanner.pos = pos
		p.scanner.cond = cellular.Condition{OnBus: true, Weather: weather}
		for _, bt := range beeps {
			p.agent.OnBeep(bt)
		}
	}
	// Alighting riders also heard this visit's beeps (they were onboard
	// through the dwell) — they are in alighting, not br.onboard, so
	// record for them too, then release them.
	for _, p := range alighting {
		p.scanner.pos = pos
		p.scanner.cond = cellular.Condition{OnBus: true, Weather: weather}
		for _, bt := range beeps {
			p.agent.OnBeep(bt)
		}
		p.state = pIdle
		p.agent.SetMobilityMode(accel.ModeStill)
		c.stats.ParticipantTrips++
		rideS := t - p.boardS
		c.stats.RidingSeconds += rideS
		if j, err := p.device.EnergyJ(phone.SettingCellularMicGoertzel, rideS); err == nil {
			c.stats.AppEnergyJ += j
		}
	}

	_ = bus.Dwell(t, dwell)
	c.observe(StopVisit{
		BusID: bus.ID, Route: bus.Route.ID, StopIdx: stopIdx, Stop: stop,
		ArriveS: t, DepartS: t + dwell, Beeps: total,
	})
}

func (c *Campaign) observe(v StopVisit) {
	if c.observer != nil {
		c.observer(v)
	}
}
