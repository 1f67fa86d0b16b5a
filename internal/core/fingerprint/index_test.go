package fingerprint

import (
	"reflect"
	"testing"

	"busprobe/internal/stats"
)

func TestMatchAllIndexedEqualsScanProperty(t *testing.T) {
	// Property: on the SAME database (same γ), the indexed path and the
	// exhaustive scan return identical matches for random samples.
	rng := stats.NewRNG(4242)
	for trial := 0; trial < 40; trial++ {
		db := newTestDB(t, randomEntries(rng, 5+rng.Intn(40), 80))
		for q := 0; q < 25; q++ {
			sample := randomFingerprint(rng, 80)
			got := db.MatchAll(sample)
			want := db.matchAllScan(sample)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d query %d: indexed %+v != scan %+v", trial, q, got, want)
			}
		}
	}
}
