package main

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestSmokeEmitsExactlyTheDeclaredMetrics runs every workload of
// BENCHMARK.json in both modes against the in-process stand-in (small
// world, a couple of hundred trips, no subprocess) and requires the
// printed metric names and units to be exactly the declared ones.
func TestSmokeEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	c, err := loadContract("..")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range c.Workloads {
		declared = append(declared, w.Name)
	}
	if !equalStrings(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, bench runs %v", declared, workloadNames)
	}
	checkUnits(t, "end_to_end", c.EndToEnd, endToEndUnits)
	checkUnits(t, "per_layer", c.PerLayer, perLayerUnits)

	ctx := context.Background()
	sz := sizes{
		world: "small", riders: 70, setupReps: 2, warmup: 16, batch: 8,
		preload: 48, writeHz: 50, snapTrips: 80, tailTrips: 24, minCycles: 2, ledgerTrips: 60,
	}
	dep, err := newDeployment(sz.world)
	if err != nil {
		t.Fatal(err)
	}
	riders, err := simulateRiders(ctx, dep, sz.riders)
	if err != nil {
		t.Fatal(err)
	}
	corpus := newCorpus(dep, riders, 1)
	speed := newSpeedometer()
	launch := localLauncher{dep: dep}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			h := &harness{launch: launch, speed: speed, corpus: corpus, sz: sz, tmp: t.TempDir(), seconds: 300 * time.Millisecond}
			tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
			res, err := runOnce(ctx, h, w, trace, tracePath)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEndUnits
			if trace {
				want = perLayerUnits
				if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
					t.Errorf("%s: traced run left no spans at %s (err %v)", w, tracePath, err)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, %d declared", w, trace, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%t: printed %s [%s], declared unit %q (declared: %t)", w, trace, name, m.Unit, unit, ok)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// checkUnits requires a BENCHMARK.json metric list and the bench's own
// table to name the same metrics with the same units.
func checkUnits(t *testing.T, list string, declared []contractMetric, units map[string]string) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range declared {
		if seen[m.Name] {
			t.Errorf("%s declares %s twice", list, m.Name)
		}
		seen[m.Name] = true
		if unit, ok := units[m.Name]; !ok || unit != m.Unit {
			t.Errorf("%s declares %s [%s]; the bench has unit %q (known: %t)", list, m.Name, m.Unit, unit, ok)
		}
	}
	for name := range units {
		if !seen[name] {
			t.Errorf("the bench prints %s, which %s does not declare", name, list)
		}
	}
}

func equalStrings(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
