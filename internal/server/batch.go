package server

import (
	"context"

	"busprobe/internal/phone"
	"busprobe/internal/probe"
)

// TripResult pairs one batch entry with its outcome.
type TripResult struct {
	Trip ProcessedTrip
	Err  error
}

var _ phone.BatchUploader = (*Backend)(nil)

// ProcessTrips ingests a batch of uploads through the ingest kernel,
// fanning the CPU-bound stages — per-sample Smith–Waterman matching and
// the clustering / mapping / extraction behind it — across workers
// goroutines (workers <= 0 uses GOMAXPROCS). The result is
// deterministic and identical to a serial ProcessTrip loop over the
// same slice, whatever the worker count.
func (b *Backend) ProcessTrips(ctx context.Context, trips []probe.Trip, workers int) []TripResult {
	return b.ingest(ctx, trips, workers)
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
