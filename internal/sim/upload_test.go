package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"busprobe/internal/faults"
	"busprobe/internal/probe"
)

// cannedBatchSink answers UploadBatch with a fixed error per trip ID.
type cannedBatchSink struct {
	errs    map[string]error
	batches int
}

func (s *cannedBatchSink) Upload(_ context.Context, t probe.Trip) error { return s.errs[t.ID] }

func (s *cannedBatchSink) UploadBatch(_ context.Context, trips []probe.Trip) []error {
	s.batches++
	out := make([]error, len(trips))
	for i, t := range trips {
		out[i] = s.errs[t.ID]
	}
	return out
}

func TestBatchFlushClassifiesPerTripErrors(t *testing.T) {
	// One flush carrying every outcome: success, duplicate (absorbed),
	// injected drop, shed, invalid, and an unclassified transport error.
	sink := &cannedBatchSink{errs: map[string]error{
		"ok":      nil,
		"dup":     fmt.Errorf("server: %w", probe.ErrDuplicateTrip),
		"lost":    faults.ErrDropped,
		"shed":    fmt.Errorf("server: %w", probe.ErrOverloaded),
		"invalid": fmt.Errorf("server: %w", probe.ErrInvalidTrip),
		"unknown": errors.New("connection reset"),
	}}
	var st CampaignStats
	u := &batchingUploader{sink: sink, size: 100, stats: &st}
	for _, id := range []string{"ok", "dup", "lost", "shed", "invalid", "unknown"} {
		if err := u.Upload(context.Background(), probe.Trip{ID: id}); err != nil {
			t.Fatalf("buffered upload %q returned %v", id, err)
		}
	}
	u.flush(context.Background())

	if sink.batches != 1 || st.BatchFlushes != 1 {
		t.Fatalf("batches = %d, flushes = %d", sink.batches, st.BatchFlushes)
	}
	if st.UploadDuplicates != 1 {
		t.Errorf("UploadDuplicates = %d", st.UploadDuplicates)
	}
	if st.UploadFailures != 4 {
		t.Errorf("UploadFailures = %d, want 4 (dup is not a failure)", st.UploadFailures)
	}
	if st.UploadsDropped != 1 || st.UploadsShed != 1 || st.UploadsInvalid != 1 {
		t.Errorf("classified = dropped %d, shed %d, invalid %d",
			st.UploadsDropped, st.UploadsShed, st.UploadsInvalid)
	}

	// An empty re-flush is a no-op.
	u.flush(context.Background())
	if st.BatchFlushes != 1 {
		t.Errorf("empty flush counted: %d", st.BatchFlushes)
	}
}

func TestCountingUploaderClassifies(t *testing.T) {
	sink := &cannedBatchSink{errs: map[string]error{
		"dup":  fmt.Errorf("server: %w", probe.ErrDuplicateTrip),
		"lost": faults.ErrDropped,
	}}
	var st CampaignStats
	u := &countingUploader{sink: sink, stats: &st}
	if err := u.Upload(context.Background(), probe.Trip{ID: "dup"}); !errors.Is(err, probe.ErrDuplicateTrip) {
		t.Fatalf("duplicate error not passed through: %v", err)
	}
	if err := u.Upload(context.Background(), probe.Trip{ID: "lost"}); !errors.Is(err, faults.ErrDropped) {
		t.Fatalf("drop error not passed through: %v", err)
	}
	if st.UploadDuplicates != 1 || st.UploadFailures != 1 || st.UploadsDropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCampaignConfigFaultValidation(t *testing.T) {
	cfg := DefaultCampaignConfig()
	cfg.Faults.DropRate = 2
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-range fault rate accepted")
	}
	cfg = DefaultCampaignConfig()
	cfg.UploadRetry.MaxAttempts = 1
	cfg.UploadRetry.JitterFrac = 2
	if err := cfg.Validate(); err == nil {
		t.Error("invalid enabled retry policy accepted")
	}
}
