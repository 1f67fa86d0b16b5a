package phone

import (
	"context"
	"errors"
	"fmt"
	"time"

	"busprobe/internal/probe"
	"busprobe/internal/stats"
)

// RetryConfig parameterizes the phone's upload retry policy.
type RetryConfig struct {
	// MaxAttempts bounds deliveries per trip per Upload call (>= 1).
	MaxAttempts int
	// BaseDelayS is the backoff before the first retry.
	BaseDelayS float64
	// MaxDelayS caps the backoff.
	MaxDelayS float64
	// JitterFrac in [0, 1] spreads each delay by up to that fraction.
	// Keeping it <= 1 preserves monotone non-decreasing delays (the
	// doubling outpaces the worst-case jitter).
	JitterFrac float64
	// Seed derives the jitter stream; equal seeds give equal schedules.
	Seed uint64
	// SpoolSize bounds the offline spool of trips that exhausted their
	// attempts (0 disables spooling).
	SpoolSize int
}

// DefaultRetryConfig returns the deployed policy: 4 attempts, 1 s base
// delay doubling to a 30 s cap with 25% jitter, and a 32-trip spool.
func DefaultRetryConfig(seed uint64) RetryConfig {
	return RetryConfig{
		MaxAttempts: 4,
		BaseDelayS:  1,
		MaxDelayS:   30,
		JitterFrac:  0.25,
		Seed:        seed,
		SpoolSize:   32,
	}
}

// Validate checks the policy.
func (c RetryConfig) Validate() error {
	if c.MaxAttempts < 1 {
		return fmt.Errorf("phone: retry needs at least one attempt, got %d", c.MaxAttempts)
	}
	if c.BaseDelayS < 0 || c.MaxDelayS < 0 {
		return fmt.Errorf("phone: negative retry delay")
	}
	if c.JitterFrac < 0 || c.JitterFrac > 1 {
		return fmt.Errorf("phone: jitter fraction %v outside [0,1]", c.JitterFrac)
	}
	if c.SpoolSize < 0 {
		return fmt.Errorf("phone: negative spool size %d", c.SpoolSize)
	}
	return nil
}

// Backoff is the deterministic capped-exponential retry schedule. The
// delay before retry i (0-based) is min(base·2^i·(1+jitter·u_i), cap)
// where u_i ~ U[0,1) comes from a stream forked per attempt index, so
// the schedule is a pure function of (seed, attempt).
type Backoff struct {
	baseS, capS, jitterFrac float64
	rng                     *stats.RNG
}

// NewBackoff builds the schedule from the config's delay fields.
func NewBackoff(cfg RetryConfig) Backoff {
	return Backoff{
		baseS:      cfg.BaseDelayS,
		capS:       cfg.MaxDelayS,
		jitterFrac: cfg.JitterFrac,
		rng:        stats.NewRNG(cfg.Seed),
	}
}

// DelayS returns the delay in seconds before retry attempt i (0-based).
func (b Backoff) DelayS(attempt int) float64 {
	if attempt < 0 {
		attempt = 0
	}
	raw := b.baseS
	for i := 0; i < attempt; i++ {
		raw *= 2
		if raw >= b.capS {
			raw = b.capS
			break
		}
	}
	u := b.rng.ForkN(uint64(attempt)).Float64()
	d := raw * (1 + b.jitterFrac*u)
	if d > b.capS {
		d = b.capS
	}
	return d
}

// RetryStats counts the retry layer's activity.
type RetryStats struct {
	// Attempts counts deliveries to the wrapped uploader, including
	// spool flushes.
	Attempts int
	// Retries counts attempts beyond the first for a given offer.
	Retries int
	// DupSuccesses counts duplicate-trip rejections treated as
	// success (the server already has the trip — idempotent delivery).
	DupSuccesses int
	// PermanentFailures counts invalid-trip rejections, which no retry
	// can fix.
	PermanentFailures int
	// Spooled counts trips parked after exhausting their attempts.
	Spooled int
	// SpoolDropped counts trips evicted from a full spool (oldest
	// first).
	SpoolDropped int
	// SpoolRecovered counts spooled trips later delivered.
	SpoolRecovered int
}

// RetryUploader wraps an Uploader with the retry policy: transient
// errors back off and retry, duplicate-trip rejections count as
// success, invalid-trip rejections fail permanently, and trips that
// exhaust their attempts are parked in a bounded spool that is
// re-flushed after the next successful upload (the next moment the
// network demonstrably works). Not safe for concurrent use — each
// phone agent owns one, like the Agent itself.
type RetryUploader struct {
	cfg     RetryConfig
	next    Uploader
	backoff Backoff
	// sleep waits between attempts, returning early with ctx.Err() when
	// the context is canceled mid-backoff; tests and the simulator
	// inject a recorder so no wall-clock time passes.
	sleep func(ctx context.Context, delayS float64) error
	spool []probe.Trip
	stats RetryStats
}

// NewRetryUploader wraps next with the policy. A nil sleep uses a
// timer racing the context, so a canceled upload stops waiting
// mid-backoff instead of sleeping out the schedule.
func NewRetryUploader(cfg RetryConfig, next Uploader, sleep func(ctx context.Context, delayS float64) error) (*RetryUploader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("phone: nil uploader")
	}
	if sleep == nil {
		sleep = func(ctx context.Context, delayS float64) error {
			timer := time.NewTimer(time.Duration(delayS * float64(time.Second)))
			defer timer.Stop()
			select {
			case <-timer.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return &RetryUploader{cfg: cfg, next: next, backoff: NewBackoff(cfg), sleep: sleep}, nil
}

// Upload delivers the trip under the retry policy. On success (or
// duplicate) it also drains the spool. A trip that exhausts its
// attempts is spooled (when enabled) and the last transient error is
// returned, so callers still observe the failure.
func (r *RetryUploader) Upload(ctx context.Context, t probe.Trip) error {
	err := r.attempt(ctx, t)
	switch {
	case err == nil:
		r.drainSpool(ctx)
		return nil
	case errors.Is(err, probe.ErrInvalidTrip):
		return err
	case ctx.Err() != nil:
		// The caller gave up, the network did not fail: surface the
		// error without parking the trip. The check is on the context
		// itself, not errors.Is(err, context.DeadlineExceeded): a
		// client-side HTTP timeout wraps DeadlineExceeded while the
		// caller's context is still live, and such a trip may well have
		// been DELIVERED (the response was lost, not the request).
		// Spooling it lets the next drain re-send it, where the
		// server's dedup answers 409 and the duplicate counts as a
		// delivered success instead of the trip silently vanishing.
		return err
	default:
		if r.cfg.SpoolSize > 0 {
			if len(r.spool) >= r.cfg.SpoolSize {
				r.spool = r.spool[1:]
				r.stats.SpoolDropped++
			}
			r.spool = append(r.spool, t)
			r.stats.Spooled++
		}
		return err
	}
}

// UploadBatch applies the per-trip policy to each trip.
func (r *RetryUploader) UploadBatch(ctx context.Context, trips []probe.Trip) []error {
	errs := make([]error, len(trips))
	for i, t := range trips {
		errs[i] = r.Upload(ctx, t)
	}
	return errs
}

// attempt runs the per-offer retry loop. A context canceled before or
// during a backoff wait aborts immediately with ctx.Err(); the trip is
// not spooled (the caller chose to stop, the network did not fail).
func (r *RetryUploader) attempt(ctx context.Context, t probe.Trip) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var err error
	for i := 0; i < r.cfg.MaxAttempts; i++ {
		if i > 0 {
			if serr := r.sleep(ctx, r.backoff.DelayS(i-1)); serr != nil {
				return serr
			}
			r.stats.Retries++
		}
		r.stats.Attempts++
		err = r.next.Upload(ctx, t)
		if err == nil {
			return nil
		}
		if errors.Is(err, probe.ErrDuplicateTrip) {
			r.stats.DupSuccesses++
			return nil
		}
		if errors.Is(err, probe.ErrInvalidTrip) {
			r.stats.PermanentFailures++
			return err
		}
	}
	return err
}

// drainSpool retries parked trips oldest-first, stopping at the first
// trip that transiently fails again (the network just broke again; the
// rest stay parked). Invalid spooled trips are discarded.
func (r *RetryUploader) drainSpool(ctx context.Context) {
	for len(r.spool) > 0 {
		t := r.spool[0]
		err := r.attempt(ctx, t)
		if err != nil && !errors.Is(err, probe.ErrInvalidTrip) {
			return
		}
		r.spool = r.spool[1:]
		if err == nil {
			r.stats.SpoolRecovered++
		}
	}
}

// FlushSpool makes one final drain pass (end of campaign).
func (r *RetryUploader) FlushSpool(ctx context.Context) {
	r.drainSpool(ctx)
}

// Stats returns a snapshot of the counters.
func (r *RetryUploader) Stats() RetryStats { return r.stats }
