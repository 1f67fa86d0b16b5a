package stage

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"busprobe/internal/cellular"
	"busprobe/internal/core/cluster"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/probe"
	"busprobe/internal/transit"
)

func emptyFingerprintDB(t *testing.T) *fingerprint.DB {
	t.Helper()
	db, err := fingerprint.NewDB(fingerprint.DefaultScoring(), fingerprint.DefaultGamma, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func sampleAt(tS float64) probe.Sample {
	return probe.Sample{
		TimeS:    tS,
		Readings: []cellular.Reading{{Cell: 1, RSS: -60}, {Cell: 2, RSS: -70}},
	}
}

// matchOnly builds a pipeline whose Match stage is runnable: the other
// stages' databases stay nil, which construction and Metrics never
// touch.
func matchOnly(t *testing.T, hook Hook) *Pipeline {
	t.Helper()
	return New(emptyFingerprintDB(t), nil, nil, Config{Hook: hook})
}

func TestMatcherEmptyDBDropsEverything(t *testing.T) {
	p := matchOnly(t, nil)
	elems := p.Match(context.Background(), []probe.Sample{sampleAt(1), sampleAt(2), sampleAt(3)})
	if len(elems) != 0 {
		t.Errorf("empty DB matched %d samples", len(elems))
	}
	got := p.Metrics()[0]
	if got.Stage != "match" || got.Runs != 1 || got.ItemsIn != 3 || got.ItemsOut != 0 || got.Dropped != 3 {
		t.Errorf("metrics = %+v", got)
	}
}

func TestInstrumentAccumulatesAcrossRuns(t *testing.T) {
	p := matchOnly(t, nil)
	p.Match(context.Background(), []probe.Sample{sampleAt(1), sampleAt(2)})
	p.Match(context.Background(), []probe.Sample{sampleAt(3)})
	got := p.Metrics()[0]
	if got.Runs != 2 || got.ItemsIn != 3 || got.Dropped != 3 {
		t.Errorf("metrics = %+v", got)
	}
	if got.DurationNs < 0 {
		t.Errorf("negative duration %d", got.DurationNs)
	}
}

func TestHookObservesEveryRun(t *testing.T) {
	type call struct {
		stage            string
		in, out, dropped int
	}
	var mu sync.Mutex
	var calls []call
	hook := func(_ context.Context, stage string, itemsIn, itemsOut, dropped int, d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, call{stage, itemsIn, itemsOut, dropped})
	}
	p := matchOnly(t, hook)
	p.Match(context.Background(), []probe.Sample{sampleAt(1), sampleAt(2)})
	p.Match(context.Background(), nil)
	if len(calls) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(calls))
	}
	if calls[0] != (call{"match", 2, 0, 2}) {
		t.Errorf("first call = %+v", calls[0])
	}
	if calls[1] != (call{"match", 0, 0, 0}) {
		t.Errorf("second call = %+v", calls[1])
	}
}

func TestPipelineMetricsOrder(t *testing.T) {
	// Construction and metrics never touch the databases, so nil
	// dependencies are fine here.
	p := New(nil, nil, nil, Config{})
	want := Names
	ms := p.Metrics()
	if len(ms) != len(want) {
		t.Fatalf("metrics rows = %d, want %d", len(ms), len(want))
	}
	for i, m := range ms {
		if m.Stage != want[i] {
			t.Errorf("stage %d = %q, want %q", i, m.Stage, want[i])
		}
		if m.Runs != 0 || m.ItemsIn != 0 {
			t.Errorf("fresh stage %q has counts: %+v", m.Stage, m)
		}
	}
}

func TestMetricsConcurrentReads(t *testing.T) {
	// Metrics snapshots must be safe while runs are in flight.
	p := matchOnly(t, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Match(context.Background(), []probe.Sample{sampleAt(float64(i))})
				_ = p.Metrics()
			}
		}()
	}
	wg.Wait()
	got := p.Metrics()[0]
	if got.Runs != 200 || got.ItemsIn != 200 {
		t.Errorf("metrics after concurrent runs = %+v", got)
	}
}

// scan is a sample at tS whose readings name the given towers, strongest
// first; rss offsets every reading so equal scans can differ in RSS.
func scan(tS, rss float64, towers ...int) probe.Sample {
	s := probe.Sample{TimeS: tS}
	for i, c := range towers {
		s.Readings = append(s.Readings, cellular.Reading{Cell: cellular.CellID(c), RSS: rss - float64(10*i)})
	}
	return s
}

// TestStageMatchReusesRepeatedScan: reusing the previous sample's answer
// for a repeated scan changes nothing. Every trip's elements, and the
// match counters, equal a naive fpdb.Match(s.Fingerprint()) per sample,
// across runs of identical scans, a repeat right after a scan that did
// not match, a scan that extends or truncates the previous one, and a
// scan equal to a non-adjacent earlier one.
func TestStageMatchReusesRepeatedScan(t *testing.T) {
	fpdb, err := fingerprint.NewDB(fingerprint.DefaultScoring(), fingerprint.DefaultGamma, map[transit.StopID]cellular.Fingerprint{
		1: {10, 11, 12, 13},
		2: {20, 21, 22, 23},
		3: {10, 11, 30, 31},
	})
	if err != nil {
		t.Fatal(err)
	}
	trips := [][]probe.Sample{
		{ // a parked bus: one scan repeated, RSS drifting
			scan(0, -60, 10, 11, 12, 13), scan(1, -60, 10, 11, 12, 13), scan(2, -65, 10, 11, 12, 13),
		},
		{ // no match, then the same scan again, then a match
			scan(0, -60, 50, 51), scan(1, -61, 50, 51), scan(2, -60, 20, 21, 22), scan(3, -60, 20, 21, 22),
		},
		{ // truncated, extended and reordered neighbours are not repeats
			scan(0, -60, 10, 11, 12, 13), scan(1, -60, 10, 11, 12), scan(2, -60, 10, 11, 12, 13),
			scan(3, -60, 10, 11, 30, 31), scan(4, -60, 11, 10, 30, 31), scan(5, -60, 10, 11),
		},
		{ // A, B, A: the second A follows B, not A
			scan(0, -60, 20, 21, 22, 23), scan(1, -60, 10, 11, 30, 31), scan(2, -60, 20, 21, 22, 23),
			scan(3, -60, 50, 51), scan(4, -60, 20, 21, 22, 23),
		},
		{ // empty scans match nothing, repeated or not
			{TimeS: 0}, {TimeS: 1}, scan(2, -60, 10, 11, 12, 13), {TimeS: 3},
		},
	}
	p := New(fpdb, nil, nil, Config{})
	var in, out int64
	for i, trip := range trips {
		var want []cluster.Element
		for _, s := range trip {
			if mt, ok := fpdb.Match(s.Fingerprint()); ok {
				want = append(want, cluster.Element{TimeS: s.TimeS, Stop: mt.Stop, Score: mt.Score})
			}
		}
		if got := p.Match(context.Background(), trip); !reflect.DeepEqual(got, want) {
			t.Errorf("trip %d: Match = %+v, want %+v", i, got, want)
		}
		in += int64(len(trip))
		out += int64(len(want))
	}
	got := p.Metrics()[iMatch]
	if got.Runs != int64(len(trips)) || got.ItemsIn != in || got.ItemsOut != out || got.Dropped != in-out {
		t.Errorf("match counters = %+v, want runs %d, in %d, out %d, dropped %d", got, len(trips), in, out, in-out)
	}
}
