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
//
// The result is exactly MatchAll(sample)[0], found in one
// branch-and-bound pass that allocates nothing for scan-sized
// fingerprints. A stop whose entry shares h (sample, entry) position
// pairs of equal IDs with the sample scores at most h·Match: every
// aligned equal pair is one of those pairs, and penalties are never
// negative. So candidates are visited by descending h (then ascending
// stop), and the pass stops at the first whose bound is below γ or
// strictly below the best score so far — equal bounds are still
// aligned, since a tie can win on common IDs or stop ID. Common IDs
// are counted only to break a score tie, and for the winner. γ = 0
// keeps MatchAll's exhaustive scan, since every stop qualifies.
// The sample is not retained.
func (db *DB) Match(sample cellular.Fingerprint) (Match, bool) {
	if len(sample) == 0 {
		return Match{}, false
	}
	if db.gamma <= 0 {
		if all := db.matchScan(sample); len(all) > 0 {
			return all[0], true
		}
		return Match{}, false
	}
	var buf [64]hits
	best, ok := Match{Common: -1}, false // Common < 0: not counted yet
	for cands := db.candidateHits(sample, buf[:0]); len(cands) > 0; {
		var c hits
		c, cands = popMostHits(cands)
		if db.bound(c.n) < max(db.gamma, best.Score) {
			break
		}
		fp := db.entries[c.stop]
		score := db.score(sample, fp)
		switch {
		case score < db.gamma || score < best.Score: // cannot win
		case score > best.Score:
			best, ok = Match{Stop: c.stop, Score: score, Common: -1}, true
		default: // a score tie: more common IDs, then the lower stop, wins
			if best.Common < 0 {
				best.Common = CommonIDs(sample, db.entries[best.Stop])
			}
			common := CommonIDs(sample, fp)
			if common > best.Common || (common == best.Common && c.stop < best.Stop) {
				best = Match{Stop: c.stop, Score: score, Common: common}
			}
		}
	}
	if !ok {
		return Match{}, false
	}
	if best.Common < 0 {
		best.Common = CommonIDs(sample, db.entries[best.Stop])
	}
	return best, true
}

// bound is the highest score an alignment with n aligned equal pairs
// can reach: n rewards added one by one, as the alignment adds them.
// Rounding is monotone and penalties only subtract, so no computed
// score exceeds it, whatever the weights.
func (db *DB) bound(n int) float64 {
	var b float64
	for ; n > 0; n-- {
		b += db.scoring.Match
	}
	return b
}

// stackCells is the longest stored fingerprint Match aligns on
// stack-resident rows. Scans report at most 7 towers (cellular's
// MaxVisible), so surveyed entries fit; longer ones take Similarity's
// heap rows. Either way the score is the same kernel's.
const stackCells = 8

// score is Similarity(sample, fp, db.scoring) without the row
// allocations.
func (db *DB) score(sample, fp cellular.Fingerprint) float64 {
	if len(fp) > stackCells {
		return Similarity(sample, fp, db.scoring)
	}
	var rows [2][stackCells + 1]float64
	return similarity(sample, fp, db.scoring, rows[0][:len(fp)+1], rows[1][:len(fp)+1])
}
