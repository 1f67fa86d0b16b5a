package faults

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"busprobe/internal/cellular"
	"busprobe/internal/probe"
	"busprobe/internal/stats"
)

// sink records everything delivered through the injector.
type sink struct {
	trips []probe.Trip
	errs  map[string]error
}

func (s *sink) Upload(_ context.Context, t probe.Trip) error {
	s.trips = append(s.trips, t)
	if s.errs != nil {
		return s.errs[t.ID]
	}
	return nil
}

// genTrips builds n structurally valid trips with distinct IDs.
func genTrips(rng *stats.RNG, n int) []probe.Trip {
	trips := make([]probe.Trip, n)
	for i := range trips {
		trip := probe.Trip{ID: fmt.Sprintf("t%d", i), DeviceID: "d"}
		t := rng.Range(0, 1000)
		k := 2 + rng.Intn(8)
		for j := 0; j < k; j++ {
			t += rng.Range(1, 60)
			trip.Samples = append(trip.Samples, probe.Sample{
				TimeS:    t,
				Readings: []cellular.Reading{{Cell: cellular.CellID(rng.Intn(100)), RSS: -60}},
			})
		}
		trips[i] = trip
	}
	return trips
}

func TestInjectorZeroRatesIsPassthroughProperty(t *testing.T) {
	// With every rate at zero the injector must be invisible: same
	// trips, same order, same payloads, no errors.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		trips := genTrips(rng, 1+rng.Intn(20))
		s := &sink{}
		in, err := NewInjector(Config{Seed: seed}, s)
		if err != nil {
			return false
		}
		for _, tr := range trips {
			if in.Upload(context.Background(), tr) != nil {
				return false
			}
		}
		in.Flush(context.Background())
		st := in.Stats()
		if st.Offered != len(trips) || st.Delivered != len(trips) ||
			st.Dropped+st.Duplicated+st.Reordered+st.Delayed+st.Corrupted != 0 {
			return false
		}
		return reflect.DeepEqual(s.trips, trips)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorDropRateOneDeliversNothingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		trips := genTrips(rng, 1+rng.Intn(20))
		s := &sink{}
		in, err := NewInjector(Config{Seed: seed, DropRate: 1}, s)
		if err != nil {
			return false
		}
		for _, tr := range trips {
			if !errors.Is(in.Upload(context.Background(), tr), ErrDropped) {
				return false
			}
		}
		in.Flush(context.Background())
		st := in.Stats()
		return len(s.trips) == 0 && st.Delivered == 0 && st.Dropped == len(trips)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorConservationProperty(t *testing.T) {
	// For arbitrary rates, after Flush: every offer is accounted for —
	// Delivered == Offered - Dropped + Duplicated, and nothing is held.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		cfg := Config{
			Seed:        seed,
			DropRate:    rng.Float64(),
			DupRate:     rng.Float64(),
			ReorderRate: rng.Float64(),
			DelayRate:   rng.Float64(),
			CorruptRate: rng.Float64(),
		}
		trips := genTrips(rng, 1+rng.Intn(30))
		s := &sink{}
		in, err := NewInjector(cfg, s)
		if err != nil {
			return false
		}
		in.UploadBatch(context.Background(), trips)
		in.Flush(context.Background())
		st := in.Stats()
		if len(in.queue) != 0 {
			return false
		}
		if st.Delivered != st.Offered-st.Dropped+st.Duplicated {
			return false
		}
		return len(s.trips) == st.Delivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorDeterministicForSeedProperty(t *testing.T) {
	// Two injectors with the same seed fed the same trips make the same
	// decisions and deliver the same sequence.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		cfg := Config{
			Seed:        seed,
			DropRate:    0.3 * rng.Float64(),
			DupRate:     0.3 * rng.Float64(),
			ReorderRate: 0.3 * rng.Float64(),
			DelayRate:   0.3 * rng.Float64(),
		}
		trips := genTrips(rng, 1+rng.Intn(20))
		s1, s2 := &sink{}, &sink{}
		in1, err1 := NewInjector(cfg, s1)
		in2, err2 := NewInjector(cfg, s2)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, tr := range trips {
			in1.Upload(context.Background(), tr)
			in2.Upload(context.Background(), tr)
		}
		in1.Flush(context.Background())
		in2.Flush(context.Background())
		return in1.Stats() == in2.Stats() && reflect.DeepEqual(s1.trips, s2.trips)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorRetryDrawsFreshDecision(t *testing.T) {
	// A dropped trip must not be doomed: with drop rate 0.5 some retry
	// eventually succeeds, because each attempt forks a new RNG stream.
	s := &sink{}
	in, err := NewInjector(Config{Seed: 3, DropRate: 0.5}, s)
	if err != nil {
		t.Fatal(err)
	}
	trip := genTrips(stats.NewRNG(9), 1)[0]
	delivered := false
	for attempt := 0; attempt < 64; attempt++ {
		if in.Upload(context.Background(), trip) == nil {
			delivered = true
			break
		}
	}
	if !delivered {
		t.Fatal("64 attempts at drop rate 0.5 never delivered — retry decisions are not fresh")
	}
	if len(s.trips) != 1 {
		t.Fatalf("delivered %d copies", len(s.trips))
	}
}

func TestInjectorCorruptionPreservesOriginal(t *testing.T) {
	// Corruption must mutate a deep copy: the caller's trip is retried
	// with the clean payload.
	s := &sink{}
	in, err := NewInjector(Config{Seed: 1, CorruptRate: 1}, s)
	if err != nil {
		t.Fatal(err)
	}
	trip := genTrips(stats.NewRNG(4), 1)[0]
	want := make([]probe.Sample, len(trip.Samples))
	copy(want, trip.Samples)
	if err := in.Upload(context.Background(), trip); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trip.Samples, want) {
		t.Fatal("corruption mutated the caller's trip in place")
	}
	if st := in.Stats(); st.Corrupted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(s.trips) != 1 || reflect.DeepEqual(s.trips[0], trip) {
		t.Fatal("delivered trip was not corrupted")
	}
}

func TestInjectorAsyncFailureCounting(t *testing.T) {
	// Held/duplicate deliveries that the uploader rejects are counted,
	// but expected duplicate rejections are not.
	s := &sink{errs: map[string]error{"bad": probe.ErrInvalidTrip, "dup": probe.ErrDuplicateTrip}}
	in, err := NewInjector(Config{Seed: 8, DupRate: 1}, s)
	if err != nil {
		t.Fatal(err)
	}
	trips := genTrips(stats.NewRNG(5), 2)
	trips[0].ID, trips[1].ID = "bad", "dup"
	in.Upload(context.Background(), trips[0])
	in.Upload(context.Background(), trips[1])
	st := in.Stats()
	if st.Duplicated != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AsyncFailures != 1 {
		t.Errorf("AsyncFailures = %d, want 1 (the invalid dup, not the duplicate rejection)", st.AsyncFailures)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{DropRate: 1.5}).Validate(); err == nil {
		t.Error("rate above 1 accepted")
	}
	if err := (Config{DupRate: -0.1}).Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	if err := (Config{ReorderDepth: -1}).Validate(); err == nil {
		t.Error("negative reorder depth accepted")
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(Config{DelayRate: 0.1}).Enabled() {
		t.Error("non-zero config reports disabled")
	}
	if _, err := NewInjector(Config{}, nil); err == nil {
		t.Error("nil uploader accepted")
	}
}
