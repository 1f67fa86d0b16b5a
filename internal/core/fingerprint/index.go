package fingerprint

import (
	"sort"

	"busprobe/internal/cellular"
	"busprobe/internal/transit"
)

// The inverted index accelerates per-sample matching: since the
// Smith–Waterman score of two fingerprints with no shared cell ID is
// exactly zero, only stops sharing at least one tower with the sample
// can clear any positive γ. The index maps cell ID → stops whose stored
// fingerprint contains it, so MatchAll aligns against the handful of
// stops around the sample instead of the whole city (the paper's region
// already has >100 stops; a city has thousands).
//
// NewDB builds the index once, with the entries, and MatchAll uses it
// whenever γ > 0; results are identical to the full scan, which the
// tests assert.

// indexAdd registers a fingerprint's cells.
func (db *DB) indexAdd(stop transit.StopID, fp cellular.Fingerprint) {
	for _, c := range fp {
		db.index[c] = append(db.index[c], stop)
	}
}

// candidateStops returns the stops sharing at least one cell ID with the
// sample, deduplicated and sorted.
func (db *DB) candidateStops(sample cellular.Fingerprint) []transit.StopID {
	seen := make(map[transit.StopID]bool)
	var out []transit.StopID
	for _, c := range sample {
		for _, s := range db.index[c] {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
