package fingerprint

import (
	"fmt"
	"testing"

	"busprobe/internal/cellular"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

// benchDB builds an n-stop database with localized tower reuse (the
// city-scale pattern: neighbouring stops share towers, distant ones
// don't) plus a query sample from the middle of town.
func benchDB(b *testing.B, n int) (*DB, cellular.Fingerprint) {
	b.Helper()
	rng := stats.NewRNG(uint64(n) ^ 0xbe)
	entries := make(map[transit.StopID]cellular.Fingerprint, n)
	for s := 0; s < n; s++ {
		base := (s / 4) * 3
		entry := make(cellular.Fingerprint, 6)
		for i := range entry {
			entry[i] = cellular.CellID(base + rng.Intn(10))
		}
		entries[transit.StopID(s)] = entry
	}
	db := newTestDB(b, entries)
	mid := (n / 8) * 3
	return db, fp(mid, mid+1, mid+4, mid+7, mid+9)
}

// BenchmarkMatchAll compares the inverted-index match path against the
// exhaustive scan at growing database sizes. The indexed path's
// advantage should grow roughly linearly with the stop count, since the
// candidate set stays local while the scan grows with the city.
func BenchmarkMatchAll(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		db, sample := benchDB(b, n)
		b.Run(fmt.Sprintf("stops=%d/indexed", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db.MatchAll(sample)
			}
		})
		b.Run(fmt.Sprintf("stops=%d/scan", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db.matchAllScan(sample)
			}
		})
	}
}
