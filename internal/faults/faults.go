// Package faults is the deterministic fault-injection layer: a seeded
// Injector that wraps any phone.Uploader / phone.BatchUploader and
// subjects the trips flowing through it to the failure modes of a real
// participatory deployment — loss, duplication, reordering, delayed
// delivery, and payload corruption — at configurable per-fault rates.
//
// Every decision draws from the repository's stats.RNG, forked by trip
// ID and per-trip attempt number, so a campaign's fault pattern is a
// pure function of (seed, trip IDs, attempt counts): two runs offering
// the same trips see the same faults regardless of upload order, and a
// retried trip gets a fresh coin flip rather than being doomed forever.
// That is what lets the chaos suite assert exact counter conservation
// and byte-identical traffic maps under duplication + reordering.
package faults

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"busprobe/internal/phone"
	"busprobe/internal/probe"
	"busprobe/internal/stats"
)

// ErrDropped is returned by Upload when the injector simulates a lost
// uplink for the offered trip. It is transient by construction — a
// retry re-offers the trip and draws a fresh decision.
var ErrDropped = errors.New("faults: upload dropped")

// Config sets the per-trip fault probabilities. All rates are in
// [0, 1] and are evaluated independently in a fixed order (corrupt,
// drop, duplicate, delay, reorder) for each offered trip.
type Config struct {
	// Seed derives the injector's RNG stream.
	Seed uint64
	// DropRate loses the offered trip: nothing is delivered and Upload
	// returns ErrDropped.
	DropRate float64
	// DupRate delivers the trip twice back to back.
	DupRate float64
	// ReorderRate holds the trip back and releases it after the next
	// 1..ReorderDepth subsequent offers, swapping delivery order.
	ReorderRate float64
	// ReorderDepth bounds how many subsequent offers a reordered trip
	// waits for (default 3).
	ReorderDepth int
	// DelayRate holds the trip until Flush — the extreme tail of
	// delivery latency (a phone that comes back online hours later).
	DelayRate float64
	// CorruptRate mutates the payload before delivery: truncated scan
	// sequence, skewed sample clock, or shuffled beep order.
	CorruptRate float64
}

// Validate checks the rates.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"drop", c.DropRate}, {"dup", c.DupRate}, {"reorder", c.ReorderRate},
		{"delay", c.DelayRate}, {"corrupt", c.CorruptRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if c.ReorderDepth < 0 {
		return fmt.Errorf("faults: negative reorder depth %d", c.ReorderDepth)
	}
	return nil
}

// Enabled reports whether any fault has a non-zero rate.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.DupRate > 0 || c.ReorderRate > 0 ||
		c.DelayRate > 0 || c.CorruptRate > 0
}

// Stats counts the injector's decisions. Conservation invariant once
// Flush has run: Delivered == Offered - Dropped + Duplicated.
type Stats struct {
	// Offered counts trips presented to Upload/UploadBatch.
	Offered int
	// Dropped counts offers lost to DropRate.
	Dropped int
	// Duplicated counts extra deliveries injected by DupRate.
	Duplicated int
	// Reordered counts trips held back by ReorderRate.
	Reordered int
	// Delayed counts trips held until Flush by DelayRate.
	Delayed int
	// Corrupted counts payload mutations.
	Corrupted int
	// Delivered counts trips actually handed to the wrapped uploader,
	// including duplicates and released held trips.
	Delivered int
	// AsyncFailures counts held or duplicate deliveries the wrapped
	// uploader rejected; the original caller is gone, so the error can
	// only be counted. Duplicate-trip rejections are expected (the
	// backend dedups) and are not counted here.
	AsyncFailures int
}

// held is a trip waiting in the reorder queue.
type held struct {
	trip probe.Trip
	// releaseAfter is the offer sequence number after which the trip is
	// delivered (0 = only on Flush).
	releaseAfter int
}

// Injector applies Config's faults to the trips flowing to the wrapped
// uploader. It implements both phone.Uploader and phone.BatchUploader
// and is safe for concurrent use.
type Injector struct {
	cfg  Config
	next phone.Uploader

	mu       sync.Mutex
	rng      *stats.RNG     //lint:guardedby mu
	attempts map[string]int //lint:guardedby mu
	queue    []held         //lint:guardedby mu
	seq      int            //lint:guardedby mu
	stats    Stats          //lint:guardedby mu
}

// NewInjector wraps next with the configured fault model.
func NewInjector(cfg Config, next phone.Uploader) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("faults: nil uploader")
	}
	if cfg.ReorderDepth == 0 {
		cfg.ReorderDepth = 3
	}
	return &Injector{
		cfg:      cfg,
		next:     next,
		rng:      stats.NewRNG(cfg.Seed),
		attempts: make(map[string]int),
	}, nil
}

// Upload offers one trip to the fault model. A dropped offer returns
// ErrDropped; a held (reordered or delayed) offer returns nil — the
// network accepted the bytes, delivery just hasn't happened yet.
func (in *Injector) Upload(ctx context.Context, t probe.Trip) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.offerLocked(ctx, t)
}

// UploadBatch offers each trip independently; errs[i] is trip i's
// outcome under the same semantics as Upload.
func (in *Injector) UploadBatch(ctx context.Context, trips []probe.Trip) []error {
	in.mu.Lock()
	defer in.mu.Unlock()
	errs := make([]error, len(trips))
	for i, t := range trips {
		errs[i] = in.offerLocked(ctx, t)
	}
	return errs
}

func (in *Injector) offerLocked(ctx context.Context, t probe.Trip) error {
	in.seq++
	in.stats.Offered++

	// Decisions come from a stream keyed by (trip ID, attempt), so the
	// fault pattern is independent of offer order and a retry is a
	// fresh draw, not a replay of the failure.
	attempt := in.attempts[t.ID]
	in.attempts[t.ID] = attempt + 1
	rng := in.rng.Fork(t.ID).ForkN(uint64(attempt))

	if in.cfg.CorruptRate > 0 && rng.Bool(in.cfg.CorruptRate) {
		t = corrupt(t, rng)
		in.stats.Corrupted++
	}
	if in.cfg.DropRate > 0 && rng.Bool(in.cfg.DropRate) {
		in.stats.Dropped++
		in.releaseLocked(ctx)
		return ErrDropped
	}
	dup := in.cfg.DupRate > 0 && rng.Bool(in.cfg.DupRate)
	var err error
	switch {
	case in.cfg.DelayRate > 0 && rng.Bool(in.cfg.DelayRate):
		in.stats.Delayed++
		in.queue = append(in.queue, held{trip: t})
	case in.cfg.ReorderRate > 0 && rng.Bool(in.cfg.ReorderRate):
		in.stats.Reordered++
		after := in.seq + 1 + rng.Intn(in.cfg.ReorderDepth)
		in.queue = append(in.queue, held{trip: t, releaseAfter: after})
	default:
		err = in.deliverLocked(ctx, t, false)
	}
	if dup {
		in.stats.Duplicated++
		_ = in.deliverLocked(ctx, t, true)
	}
	in.releaseLocked(ctx)
	return err
}

// releaseLocked delivers every reordered trip whose hold has expired.
func (in *Injector) releaseLocked(ctx context.Context) {
	kept := in.queue[:0]
	for _, h := range in.queue {
		if h.releaseAfter > 0 && in.seq >= h.releaseAfter {
			_ = in.deliverLocked(ctx, h.trip, true)
		} else {
			kept = append(kept, h)
		}
	}
	in.queue = kept
}

// deliverLocked hands a trip to the wrapped uploader and returns its
// outcome. async deliveries (duplicates, released holds) have no caller
// to report to, so their non-duplicate rejections are counted instead.
func (in *Injector) deliverLocked(ctx context.Context, t probe.Trip, async bool) error {
	in.stats.Delivered++
	err := in.next.Upload(ctx, t)
	if err != nil && async && !errors.Is(err, probe.ErrDuplicateTrip) {
		in.stats.AsyncFailures++
	}
	return err
}

// Flush delivers every held trip (end of campaign: the offline phones
// come back). Call it before reading final backend state.
func (in *Injector) Flush(ctx context.Context) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, h := range in.queue {
		_ = in.deliverLocked(ctx, h.trip, true)
	}
	in.queue = in.queue[:0]
}

// Stats returns a snapshot of the counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// corrupt returns a mutated deep copy of the trip, picking one of the
// three corruption modes. The original is never aliased — callers may
// retry with the clean payload.
func corrupt(t probe.Trip, rng *stats.RNG) probe.Trip {
	out := t
	out.Samples = make([]probe.Sample, len(t.Samples))
	copy(out.Samples, t.Samples)
	mode := rng.Intn(3)
	if mode == 2 && len(out.Samples) < 2 {
		mode = rng.Intn(2)
	}
	switch mode {
	case 0: // truncated scan sequence: the app died mid-trip
		if len(out.Samples) > 1 {
			out.Samples = out.Samples[:(len(out.Samples)+1)/2]
		}
	case 1: // clock skew: the phone's clock ran ahead
		skew := rng.Range(30, 300)
		for i := range out.Samples {
			out.Samples[i].TimeS += skew
		}
	case 2: // shuffled beeps: samples arrive out of order (invalid)
		p := rng.Perm(len(out.Samples))
		shuffled := make([]probe.Sample, len(out.Samples))
		for i, j := range p {
			shuffled[i] = out.Samples[j]
		}
		// A permutation can be the identity; force a violation so the
		// mode reliably produces an invalid trip.
		if len(shuffled) >= 2 && shuffled[0].TimeS <= shuffled[1].TimeS {
			shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
		}
		out.Samples = shuffled
	}
	return out
}
