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
// fingerprint contains it, once per occurrence, so MatchAll and Match
// align against the handful of stops around the sample instead of the
// whole city (the paper's region already has >100 stops; a city has
// thousands).
//
// NewDB builds the index once, with the entries, and both use it
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

// hits is one candidate stop and how many postings the sample hit in
// it: the number of (sample position, entry position) pairs holding
// the same cell ID.
type hits struct {
	stop transit.StopID
	n    int
}

// candidateHits walks the index once and returns every stop sharing a
// cell ID with the sample, with its hit count, in no particular order.
// Repeated IDs on either side count with multiplicity, because the
// index lists a stop once per occurrence. It appends to buf, so a
// caller passing stack scratch allocates nothing for the usual dozen or
// two candidates, and it deduplicates by linear search, which beats a
// map or a sort at that size.
func (db *DB) candidateHits(sample cellular.Fingerprint, buf []hits) []hits {
	for _, c := range sample {
	postings:
		for _, s := range db.index[c] {
			for i := range buf {
				if buf[i].stop == s {
					buf[i].n++
					continue postings
				}
			}
			buf = append(buf, hits{stop: s, n: 1})
		}
	}
	return buf
}

// popMostHits removes the candidate with the most hits, the lowest stop
// among equals, and returns it with the remaining candidates.
func popMostHits(cands []hits) (hits, []hits) {
	k := 0
	for i, c := range cands {
		if c.n > cands[k].n || (c.n == cands[k].n && c.stop < cands[k].stop) {
			k = i
		}
	}
	top, last := cands[k], len(cands)-1
	cands[k] = cands[last]
	return top, cands[:last]
}
