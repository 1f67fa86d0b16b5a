package server

import (
	"fmt"

	"busprobe/internal/cellular"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

// SurveySeed derives the fingerprint-survey seed from a world seed.
// Every process that surveys the same city — server, simulator, lab,
// benchmark — must derive it here: a different seed is a different
// fingerprint database, which silently breaks every byte-identity check.
func SurveySeed(worldSeed uint64) uint64 { return worldSeed ^ 0xf9 }

// BuildFingerprintDB performs the paper's war-free site survey (§IV-A):
// for every logical stop it collects `runs` cellular samples at each
// platform under varied conditions (standing and on a bus, different
// weather) and stores the sample most similar to the rest as the stop's
// fingerprint. Opposite-side platforms contribute to the same logical
// stop, implementing the §III-A aggregation.
func BuildFingerprintDB(cells *cellular.Deployment, tdb *transit.DB, runs int, cfg Config, seed uint64) (*fingerprint.DB, error) {
	if cells == nil || tdb == nil {
		return nil, fmt.Errorf("server: nil deployment or transit DB")
	}
	if runs <= 0 {
		return nil, fmt.Errorf("server: need at least one survey run, got %d", runs)
	}
	rng := stats.NewRNG(seed).Fork("fp-survey")
	entries := make(map[transit.StopID]cellular.Fingerprint, tdb.NumStops())
	for _, st := range tdb.Stops() {
		var samples []cellular.Fingerprint
		for r := 0; r < runs; r++ {
			cond := cellular.Condition{
				OnBus:   r%2 == 1,
				Weather: rng.Range(-1, 1),
			}
			for _, pid := range st.Platforms {
				p := tdb.Platform(pid)
				fp := cells.ScanFingerprint(p.Pos, cond, rng)
				if len(fp) > 0 {
					samples = append(samples, fp)
				}
			}
		}
		if len(samples) == 0 {
			return nil, fmt.Errorf("server: stop %d has no cellular coverage", st.ID)
		}
		fp, err := fingerprint.Representative(samples, cfg.Scoring)
		if err != nil {
			return nil, err
		}
		entries[st.ID] = fp
	}
	return fingerprint.NewDB(cfg.Scoring, cfg.Gamma, entries)
}
