package server

import (
	"context"
	"runtime"
	"sync"

	"busprobe/internal/phone"
	"busprobe/internal/probe"
)

// TripResult pairs one batch entry with its outcome.
type TripResult struct {
	Trip ProcessedTrip
	Err  error
}

var _ phone.BatchUploader = (*Backend)(nil)

// ProcessTrips ingests a batch of uploads, fanning the CPU-bound
// stages — per-sample Smith–Waterman matching and the clustering /
// mapping / extraction behind it — across a worker pool. workers <= 0
// uses GOMAXPROCS.
//
// The result is deterministic and identical to a serial ProcessTrip
// loop over the same slice: admission (validation, dedup, log append)
// runs sequentially in input order, the stage computations fan out,
// and estimator folding plus counter application are re-serialized in
// input order. When OnlineUpdate is enabled the batch degrades to the
// serial path, because later trips' matching must observe earlier
// trips' fingerprint refreshes.
func (b *Backend) ProcessTrips(ctx context.Context, trips []probe.Trip, workers int) []TripResult {
	res := make([]TripResult, len(trips))
	if len(trips) == 0 {
		return res
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(trips) {
		workers = len(trips)
	}
	// One checkpoint read lock covers the whole batch — all three
	// phases, so a checkpoint cut falls between batches, never between a
	// trip's log record and its fold. The serial path below must call
	// processTrip (not ProcessTrip) to avoid a nested RLock, which could
	// deadlock against a writer queued between the two acquisitions.
	b.checkpointMu.RLock()
	defer b.checkpointMu.RUnlock()
	if b.cfg.OnlineUpdate || workers == 1 {
		for i, trip := range trips {
			out, err := b.processTrip(ctx, trip)
			res[i] = TripResult{Trip: out, Err: err}
		}
		return res
	}

	// Per-trip contexts are derived once and reused across the three
	// phases: with observability on, each derivation allocates (trace ID
	// string + context node), and the phases would otherwise repeat it.
	tripCtxs := make([]context.Context, len(trips))
	for i := range trips {
		tripCtxs[i] = b.tripCtx(ctx, trips[i])
	}

	// Phase 1 — ordered admission: validate, dedup, log. Duplicate
	// IDs within the batch resolve exactly as serial ingestion would
	// (first occurrence wins).
	admitted := make([]bool, len(trips))
	for i := range trips {
		if err := b.admit(tripCtxs[i], trips[i]); err != nil {
			res[i].Err = err
			continue
		}
		admitted[i] = true
	}

	// Phase 2 — concurrent stage computation over the admitted trips.
	work := make([]tripWork, len(trips))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				work[i] = b.compute(tripCtxs[i], trips[i])
			}
		}()
	}
	for i := range trips {
		if admitted[i] {
			idx <- i //lint:allow lockorder bounded send: the phase-2 workers drain idx until close, so this cannot block past the batch's own compute
		}
	}
	close(idx)
	wg.Wait()

	// Phase 3 — ordered fold: estimator updates and per-trip counters
	// land in input order, keeping batch output byte-identical to a
	// serial ProcessTrip loop.
	for i := range trips {
		if !admitted[i] {
			continue
		}
		b.fold(tripCtxs[i], &work[i])
		res[i] = TripResult{Trip: work[i].out, Err: work[i].err}
	}
	return res
}

// IngestBatch is the gated batch-ingest entry point: the batch passes
// the admission gate first (a shed batch fails every trip with
// ErrOverloaded, exactly as the HTTP endpoint answers 429), then runs
// through ProcessTrips with the configured parallelism.
func (b *Backend) IngestBatch(ctx context.Context, trips []probe.Trip) []TripResult {
	release, ok := b.AdmitBatch(len(trips))
	if !ok {
		res := make([]TripResult, len(trips))
		for i := range res {
			res[i].Err = ErrOverloaded
		}
		return res
	}
	defer release()
	return b.ProcessTrips(ctx, trips, 0)
}

// UploadBatch implements phone.BatchUploader over IngestBatch.
func (b *Backend) UploadBatch(ctx context.Context, trips []probe.Trip) []error {
	errs := make([]error, len(trips))
	for i, r := range b.IngestBatch(ctx, trips) {
		errs[i] = r.Err
	}
	return errs
}
