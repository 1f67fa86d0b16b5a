package phone

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"busprobe/internal/probe"
)

// scriptedUploader returns a scripted error sequence, one per call.
type scriptedUploader struct {
	script []error
	calls  int
	trips  []probe.Trip
}

func (s *scriptedUploader) Upload(_ context.Context, t probe.Trip) error {
	s.trips = append(s.trips, t)
	var err error
	if s.calls < len(s.script) {
		err = s.script[s.calls]
	}
	s.calls++
	return err
}

var errNetwork = errors.New("network down")

func tripN(i int) probe.Trip {
	return probe.Trip{ID: fmt.Sprintf("trip-%d", i), DeviceID: "d"}
}

func TestBackoffScheduleProperties(t *testing.T) {
	// For any seed the schedule is monotone non-decreasing, never
	// exceeds the cap, starts at >= base, and is reproducible.
	f := func(seed uint64) bool {
		cfg := DefaultRetryConfig(seed)
		b1, b2 := NewBackoff(cfg), NewBackoff(cfg)
		prev := 0.0
		for i := 0; i < 12; i++ {
			d := b1.DelayS(i)
			if d != b2.DelayS(i) {
				return false // not deterministic
			}
			if d < prev {
				return false // not monotone
			}
			if d > cfg.MaxDelayS {
				return false // cap violated
			}
			if i == 0 && d < cfg.BaseDelayS {
				return false // jitter may only lengthen a delay
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffCapAndNegativeAttempt(t *testing.T) {
	cfg := RetryConfig{MaxAttempts: 4, BaseDelayS: 1, MaxDelayS: 8, JitterFrac: 0, Seed: 1}
	b := NewBackoff(cfg)
	for i, want := range []float64{1, 2, 4, 8, 8, 8} {
		if got := b.DelayS(i); got != want {
			t.Errorf("DelayS(%d) = %v, want %v", i, got, want)
		}
	}
	if got := b.DelayS(-5); got != b.DelayS(0) {
		t.Errorf("negative attempt = %v, want clamp to attempt 0", got)
	}
}

func TestRetryTransientThenSuccess(t *testing.T) {
	s := &scriptedUploader{script: []error{errNetwork, errNetwork, nil}}
	var delays []float64
	r, err := NewRetryUploader(DefaultRetryConfig(7), s, func(_ context.Context, d float64) error { delays = append(delays, d); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Upload(context.Background(), tripN(0)); err != nil {
		t.Fatalf("upload after transient failures: %v", err)
	}
	if s.calls != 3 {
		t.Errorf("attempts = %d, want 3", s.calls)
	}
	if len(delays) != 2 || delays[1] < delays[0] {
		t.Errorf("recorded backoff delays = %v", delays)
	}
	st := r.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.Spooled != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetryDuplicateIsSuccess(t *testing.T) {
	s := &scriptedUploader{script: []error{fmt.Errorf("server: %w", probe.ErrDuplicateTrip)}}
	r, err := NewRetryUploader(DefaultRetryConfig(7), s, func(context.Context, float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Upload(context.Background(), tripN(0)); err != nil {
		t.Fatalf("duplicate rejection surfaced as error: %v", err)
	}
	if s.calls != 1 {
		t.Errorf("duplicate was retried: %d calls", s.calls)
	}
	if st := r.Stats(); st.DupSuccesses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetryInvalidIsPermanent(t *testing.T) {
	s := &scriptedUploader{script: []error{fmt.Errorf("server: %w", probe.ErrInvalidTrip)}}
	r, err := NewRetryUploader(DefaultRetryConfig(7), s, func(context.Context, float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Upload(context.Background(), tripN(0)); !errors.Is(err, probe.ErrInvalidTrip) {
		t.Fatalf("invalid trip error = %v", err)
	}
	if s.calls != 1 {
		t.Errorf("invalid trip was retried: %d calls", s.calls)
	}
	st := r.Stats()
	if st.PermanentFailures != 1 || st.Spooled != 0 {
		t.Errorf("invalid trip must not be spooled: %+v", st)
	}
}

func TestRetrySpoolRecovery(t *testing.T) {
	// Trip 0 exhausts its attempts and is spooled; trip 1 succeeds and
	// the spool drains behind it.
	cfg := DefaultRetryConfig(7)
	cfg.MaxAttempts = 2
	s := &scriptedUploader{script: []error{errNetwork, errNetwork}} // then all nil
	r, err := NewRetryUploader(cfg, s, func(context.Context, float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Upload(context.Background(), tripN(0)); !errors.Is(err, errNetwork) {
		t.Fatalf("exhausted upload error = %v", err)
	}
	if len(r.spool) != 1 {
		t.Fatalf("spool len = %d, want 1", len(r.spool))
	}
	if err := r.Upload(context.Background(), tripN(1)); err != nil {
		t.Fatal(err)
	}
	if len(r.spool) != 0 {
		t.Errorf("spool not drained after success: %d left", len(r.spool))
	}
	st := r.Stats()
	if st.Spooled != 1 || st.SpoolRecovered != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Delivery order after recovery: trip 0 twice (failures), trip 1,
	// then the spooled trip 0.
	last := s.trips[len(s.trips)-1]
	if last.ID != "trip-0" {
		t.Errorf("last delivered = %s, want the recovered trip-0", last.ID)
	}
}

func TestRetrySpoolBoundEvictsOldest(t *testing.T) {
	cfg := DefaultRetryConfig(7)
	cfg.MaxAttempts = 1
	cfg.SpoolSize = 2
	fail := make([]error, 10)
	for i := range fail {
		fail[i] = errNetwork
	}
	r, err := NewRetryUploader(cfg, &scriptedUploader{script: fail}, func(context.Context, float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_ = r.Upload(context.Background(), tripN(i))
	}
	if len(r.spool) != 2 {
		t.Fatalf("spool len = %d, want bound 2", len(r.spool))
	}
	st := r.Stats()
	if st.Spooled != 4 || st.SpoolDropped != 2 {
		t.Errorf("stats = %+v", st)
	}
	// FlushSpool against a now-healthy sink recovers the two newest.
	ok := &scriptedUploader{}
	r.next = ok
	r.FlushSpool(context.Background())
	if len(r.spool) != 0 || len(ok.trips) != 2 {
		t.Fatalf("flush delivered %d, spool %d", len(ok.trips), len(r.spool))
	}
	if ok.trips[0].ID != "trip-2" || ok.trips[1].ID != "trip-3" {
		t.Errorf("recovered %s, %s — oldest were not the ones evicted", ok.trips[0].ID, ok.trips[1].ID)
	}
}

func TestRetryDrainStopsAtTransientFailure(t *testing.T) {
	cfg := DefaultRetryConfig(7)
	cfg.MaxAttempts = 1
	s := &scriptedUploader{script: []error{errNetwork, errNetwork, nil, nil, errNetwork}}
	r, err := NewRetryUploader(cfg, s, func(context.Context, float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Upload(context.Background(), tripN(0)) // spooled
	_ = r.Upload(context.Background(), tripN(1)) // spooled
	// Success; drain recovers trip 0, then trip 1 fails again and stays.
	if err := r.Upload(context.Background(), tripN(2)); err != nil {
		t.Fatal(err)
	}
	if len(r.spool) != 1 {
		t.Errorf("spool len = %d, want 1 (drain must stop at the first failure)", len(r.spool))
	}
	if st := r.Stats(); st.SpoolRecovered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetryConfigValidate(t *testing.T) {
	bad := []RetryConfig{
		{MaxAttempts: 0},
		{MaxAttempts: 1, BaseDelayS: -1},
		{MaxAttempts: 1, JitterFrac: 1.5},
		{MaxAttempts: 1, SpoolSize: -1},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := DefaultRetryConfig(1).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if _, err := NewRetryUploader(DefaultRetryConfig(1), nil, nil); err == nil {
		t.Error("nil uploader accepted")
	}
}

// TestUploadCancelMidBackoff is the regression test for the
// uncancellable-backoff bug: canceling the context while the uploader
// waits out a retry delay must abort the wait immediately, return
// ctx.Err(), stop attempting, and leave the trip unspooled (the caller
// gave up; the network did not fail).
func TestUploadCancelMidBackoff(t *testing.T) {
	s := &scriptedUploader{script: []error{errNetwork, errNetwork, errNetwork, errNetwork}}
	ctx, cancel := context.WithCancel(context.Background())
	var slept []float64
	sleep := func(ctx context.Context, d float64) error {
		slept = append(slept, d)
		cancel() // the user aborts while the backoff timer is pending
		return ctx.Err()
	}
	r, err := NewRetryUploader(DefaultRetryConfig(7), s, sleep)
	if err != nil {
		t.Fatal(err)
	}

	err = r.Upload(ctx, tripN(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Upload after mid-backoff cancel = %v, want context.Canceled", err)
	}
	if len(slept) != 1 {
		t.Errorf("backoff waits = %d, want exactly 1 (abort on first cancel)", len(slept))
	}
	if s.calls != 1 {
		t.Errorf("delivery attempts = %d, want 1 (no attempts after cancel)", s.calls)
	}
	if len(r.spool) != 0 {
		t.Errorf("spool = %d trips; a canceled upload must not be parked", len(r.spool))
	}
	if st := r.Stats(); st.Retries != 0 || st.Spooled != 0 {
		t.Errorf("stats after cancel = %+v", st)
	}
}

// TestUploadCanceledBeforeStart: an already-dead context short-circuits
// before the first delivery attempt.
func TestUploadCanceledBeforeStart(t *testing.T) {
	s := &scriptedUploader{}
	r, err := NewRetryUploader(DefaultRetryConfig(7), s, func(context.Context, float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.Upload(ctx, tripN(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Upload on dead context = %v, want context.Canceled", err)
	}
	if s.calls != 0 {
		t.Errorf("delivery attempts = %d, want 0", s.calls)
	}
	if len(r.spool) != 0 {
		t.Errorf("spool = %d, want 0", len(r.spool))
	}
}

// TestRetrySpoolsClientSideTimeout is the regression test for the
// delivered-but-dropped bug: an http.Client timeout surfaces as an
// error wrapping context.DeadlineExceeded even though the CALLER's
// context is still live — and the request may well have been delivered,
// with only the response lost. Such a trip must be spooled like any
// transient failure (so the next drain re-sends it and the server's
// 409 resolves it as a delivered duplicate), not misread as "the
// caller gave up" and silently dropped.
func TestRetrySpoolsClientSideTimeout(t *testing.T) {
	// What net/http returns on a client-side timeout: a wrapper around
	// context.DeadlineExceeded, while ctx passed to Upload stays live.
	clientTimeout := fmt.Errorf(`Post "http://x/v1/trips": %w`, context.DeadlineExceeded)
	cfg := DefaultRetryConfig(7)
	cfg.MaxAttempts = 2
	s := &scriptedUploader{script: []error{clientTimeout, clientTimeout}}
	r, err := NewRetryUploader(cfg, s, func(context.Context, float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Upload(context.Background(), tripN(0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exhausted upload error = %v", err)
	}
	if len(r.spool) != 1 {
		t.Fatalf("spool len = %d, want 1 — a client-side timeout with a live caller context must park the trip", len(r.spool))
	}
	// The retried-but-delivered case: the next delivery answers 409
	// (duplicate) for the spooled trip. The drain must count it as a
	// recovered success, not park or drop it.
	s.script = append(s.script, nil, fmt.Errorf("server: %w", probe.ErrDuplicateTrip))
	if err := r.Upload(context.Background(), tripN(1)); err != nil {
		t.Fatal(err)
	}
	if len(r.spool) != 0 {
		t.Errorf("spool len = %d after drain, want 0", len(r.spool))
	}
	st := r.Stats()
	if st.SpoolRecovered != 1 || st.DupSuccesses != 1 {
		t.Errorf("stats = %+v, want the 409 on drain counted as DupSuccess + SpoolRecovered", st)
	}
}

// TestRetryCallerDeadlineNotSpooled: when the CALLER's own deadline
// expires, the trip must not be parked — same policy as cancellation.
func TestRetryCallerDeadlineNotSpooled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Simulate the caller's context dying during the first attempt: the
	// uploader cancels it before returning its error.
	next := uploaderFunc(func(context.Context, probe.Trip) error {
		cancel()
		return fmt.Errorf("upload: %w", context.DeadlineExceeded)
	})
	r, err := NewRetryUploader(DefaultRetryConfig(7), next, func(context.Context, float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Upload(ctx, tripN(0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("upload error = %v", err)
	}
	if len(r.spool) != 0 {
		t.Errorf("spool len = %d, want 0 — dead caller context must not park the trip", len(r.spool))
	}
}

// uploaderFunc adapts a function to the Uploader interface.
type uploaderFunc func(ctx context.Context, t probe.Trip) error

func (f uploaderFunc) Upload(ctx context.Context, t probe.Trip) error { return f(ctx, t) }

// TestDefaultSleepHonorsCancel exercises the real timer-based sleep: a
// canceled context must cut a long backoff short.
func TestDefaultSleepHonorsCancel(t *testing.T) {
	cfg := DefaultRetryConfig(7)
	cfg.BaseDelayS = 3600 // an hour: the test only passes if cancel wins
	s := &scriptedUploader{script: []error{errNetwork, errNetwork}}
	r, err := NewRetryUploader(cfg, s, nil) // nil = the production sleep
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Upload(ctx, tripN(3)) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Upload = %v, want context.Canceled", err)
	}
}
