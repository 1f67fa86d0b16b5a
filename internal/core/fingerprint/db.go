package fingerprint

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"busprobe/internal/cellular"
	"busprobe/internal/transit"
)

// DefaultGamma is the acceptance threshold γ for per-sample matching:
// samples whose best similarity falls below it are discarded as noise.
// The paper sets γ = 2 from the Fig. 2 measurement study.
const DefaultGamma = 2.0

// Match is one candidate result of matching an uploaded cellular sample
// against the database.
type Match struct {
	Stop   transit.StopID
	Score  float64
	Common int // number of shared cell IDs (tie-breaker)
}

// DB is the bus-stop fingerprint database (§III-B "Bus stop database").
// It holds one representative fingerprint per logical stop and serves
// per-sample matching. NewDB builds it once — from the survey or a
// persisted file — and nothing changes it afterwards, so any number of
// goroutines may match against one DB without synchronization.
type DB struct {
	entries map[transit.StopID]cellular.Fingerprint
	// index maps cell ID -> stops whose fingerprint contains it; see
	// index.go.
	index   map[cellular.CellID][]transit.StopID
	scoring Scoring
	gamma   float64
}

// NewDB validates the scoring, γ and every entry, copies the entries,
// and builds the database with its inverted index. An empty fingerprint
// is an error; nil entries give an empty database.
func NewDB(scoring Scoring, gamma float64, entries map[transit.StopID]cellular.Fingerprint) (*DB, error) {
	if err := scoring.Validate(); err != nil {
		return nil, err
	}
	if gamma < 0 {
		return nil, fmt.Errorf("fingerprint: negative gamma %v", gamma)
	}
	stops := make([]transit.StopID, 0, len(entries))
	for stop := range entries {
		stops = append(stops, stop)
	}
	slices.Sort(stops)
	db := &DB{
		entries: make(map[transit.StopID]cellular.Fingerprint, len(entries)),
		index:   make(map[cellular.CellID][]transit.StopID),
		scoring: scoring,
		gamma:   gamma,
	}
	for _, stop := range stops {
		fp := entries[stop]
		if len(fp) == 0 {
			return nil, fmt.Errorf("fingerprint: empty fingerprint for stop %d", stop)
		}
		db.entries[stop] = slices.Clone(fp)
		db.indexAdd(stop, fp)
	}
	return db, nil
}

// Scoring returns the alignment weights in use.
func (db *DB) Scoring() Scoring { return db.scoring }

// Gamma returns the acceptance threshold.
func (db *DB) Gamma() float64 { return db.gamma }

// Len returns the number of fingerprinted stops.
func (db *DB) Len() int { return len(db.entries) }

// Representative selects a stop's fingerprint from several collection
// runs: the sample with the highest total similarity to the other
// samples wins, the first one on a tie (§IV-A: "the sample with the
// highest similarity with the rest samples is chosen as the
// fingerprint"). The result aliases the winning sample.
func Representative(samples []cellular.Fingerprint, scoring Scoring) (cellular.Fingerprint, error) {
	if len(samples) == 0 {
		return nil, errors.New("fingerprint: no samples")
	}
	bestIdx, bestTotal := 0, -1.0
	for i, s := range samples {
		var total float64
		for j, o := range samples {
			if i == j {
				continue
			}
			total += Similarity(s, o, scoring)
		}
		if total > bestTotal {
			bestIdx, bestTotal = i, total
		}
	}
	return samples[bestIdx], nil
}

// MatchAll scores a sample against the stored stops and returns the
// candidates at or above γ, best first. Ordering is by score, then by
// common-ID count, then ascending stop ID for determinism. With γ > 0
// the inverted index restricts alignment to stops sharing a tower with
// the sample (zero-overlap pairs score exactly 0 and cannot qualify);
// γ = 0 falls back to the exhaustive scan so every stop can be returned.
func (db *DB) MatchAll(sample cellular.Fingerprint) []Match {
	if len(sample) == 0 {
		return nil
	}
	if db.gamma > 0 {
		return db.matchIndexed(sample)
	}
	return db.matchScan(sample)
}

// matchIndexed aligns the sample against the index candidates only.
// Caller guarantees γ > 0, so skipping zero-overlap stops (which score
// exactly 0) cannot change the result.
func (db *DB) matchIndexed(sample cellular.Fingerprint) []Match {
	var out []Match
	for _, stop := range db.candidateStops(sample) {
		fp := db.entries[stop]
		score := Similarity(sample, fp, db.scoring)
		if score >= db.gamma {
			out = append(out, Match{Stop: stop, Score: score, Common: CommonIDs(sample, fp)})
		}
	}
	sortMatches(out)
	return out
}

// matchScan aligns the sample against every stored stop.
func (db *DB) matchScan(sample cellular.Fingerprint) []Match {
	var out []Match
	for stop, fp := range db.entries {
		score := Similarity(sample, fp, db.scoring)
		if score >= db.gamma {
			out = append(out, Match{Stop: stop, Score: score, Common: CommonIDs(sample, fp)})
		}
	}
	sortMatches(out)
	return out
}

// matchAllScan is the exhaustive-scan reference implementation of
// MatchAll, kept for the equivalence tests and benchmarks that compare
// the inverted-index path against it.
func (db *DB) matchAllScan(sample cellular.Fingerprint) []Match {
	if len(sample) == 0 {
		return nil
	}
	return db.matchScan(sample)
}

// sortMatches orders candidates best-first with deterministic ties.
func sortMatches(out []Match) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Common != out[j].Common {
			return out[i].Common > out[j].Common
		}
		return out[i].Stop < out[j].Stop
	})
}

// Match returns the best candidate for a sample, applying the γ filter
// and the common-ID tie-break. ok is false when no stop clears γ — the
// paper discards such samples "without further processing".
func (db *DB) Match(sample cellular.Fingerprint) (Match, bool) {
	all := db.MatchAll(sample)
	if len(all) == 0 {
		return Match{}, false
	}
	return all[0], true
}
