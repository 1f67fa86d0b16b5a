package fingerprint_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"busprobe/internal/cellular"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/lab"
	"busprobe/internal/sim"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

// paperWorld is a small simulated corpus on the paper's city: its
// surveyed fingerprint database and every sample its riders uploaded,
// in upload order.
type paperWorld struct {
	db    *fingerprint.DB
	scans []cellular.Fingerprint
}

var (
	paperOnce sync.Once
	paper     paperWorld
	paperErr  error
)

// paperCorpus builds the paper world once per test binary.
func paperCorpus(tb testing.TB) paperWorld {
	tb.Helper()
	paperOnce.Do(func() {
		wcfg := sim.DefaultWorldConfig()
		wcfg.Seed = 1
		dep, err := lab.NewDeployment(wcfg, 4)
		if err != nil {
			paperErr = err
			return
		}
		ccfg := sim.DefaultCampaignConfig()
		ccfg.Days = 1
		ccfg.Participants = 12
		ccfg.IntensiveFromDay = 0
		trips, err := lab.CollectTrips(context.Background(), dep, ccfg)
		if err != nil {
			paperErr = err
			return
		}
		paper.db = dep.FPDB
		for _, tr := range trips {
			for _, s := range tr.Samples {
				paper.scans = append(paper.scans, s.Fingerprint())
			}
		}
	})
	if paperErr != nil {
		tb.Fatal(paperErr)
	}
	return paper
}

// cells builds a fingerprint from ints.
func cells(ids ...int) cellular.Fingerprint {
	out := make(cellular.Fingerprint, len(ids))
	for i, v := range ids {
		out[i] = cellular.CellID(v)
	}
	return out
}

// drawFingerprint draws 1–maxLen IDs from a 12-cell alphabet, so
// repeated IDs, score ties and common-ID ties are all frequent.
func drawFingerprint(rng *stats.RNG, maxLen int) cellular.Fingerprint {
	out := make(cellular.Fingerprint, 1+rng.Intn(maxLen))
	for i := range out {
		out[i] = cellular.CellID(rng.Intn(12))
	}
	return out
}

// checkHead fails unless db.Match(s) is MatchAll(s)[0], or both are
// empty. It reports whether MatchAll's first two candidates tie on
// score, and whether they also tie on common IDs.
func checkHead(t *testing.T, db *fingerprint.DB, s cellular.Fingerprint) (scoreTie, commonTie bool) {
	t.Helper()
	all := db.MatchAll(s)
	got, ok := db.Match(s)
	if len(all) == 0 {
		if ok {
			t.Fatalf("sample %v: Match = %+v, MatchAll is empty", s, got)
		}
		return false, false
	}
	if !ok || got != all[0] {
		t.Fatalf("sample %v: Match = %+v, %v; MatchAll[0] = %+v", s, got, ok, all[0])
	}
	if len(all) > 1 && all[0].Score == all[1].Score {
		return true, all[0].Common == all[1].Common
	}
	return false, false
}

// TestMatchEqualsMatchAllHead holds the branch-and-bound Match to its
// specification, MatchAll's head, on random databases (repeated IDs on
// both sides, entries and samples longer than Match's 8-cell stack
// rows, several weightings, γ = 0 included) and on every sample of a
// simulated paper-world corpus against its survey database.
func TestMatchEqualsMatchAllHead(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := stats.NewRNG(2828)
		scorings := []fingerprint.Scoring{
			fingerprint.DefaultScoring(),
			{Match: 1, Mismatch: 0, Gap: 0},
			{Match: 0.7, Mismatch: 0.1, Gap: 0.5},
		}
		var queries, scoreTies, commonTies int
		for trial := 0; trial < 300; trial++ {
			sc := scorings[trial%len(scorings)]
			gamma := []float64{fingerprint.DefaultGamma, 0, 1, 3.5}[trial%4]
			entries := make(map[transit.StopID]cellular.Fingerprint)
			for s, n := 0, 1+rng.Intn(40); s < n; s++ {
				entries[transit.StopID(rng.Intn(1000))] = drawFingerprint(rng, 12)
			}
			db, err := fingerprint.NewDB(sc, gamma, entries)
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 30; q++ {
				st, ct := checkHead(t, db, drawFingerprint(rng, 12))
				queries++
				if st {
					scoreTies++
				}
				if ct {
					commonTies++
				}
			}
		}
		t.Logf("%d queries, %d score ties, %d common-ID ties", queries, scoreTies, commonTies)
		// The property is only as strong as the ties it saw.
		if scoreTies < queries/10 || commonTies < queries/20 {
			t.Errorf("%d queries hit %d score ties and %d common-ID ties; the alphabet no longer forces ties",
				queries, scoreTies, commonTies)
		}
	})
	t.Run("paper world", func(t *testing.T) {
		w := paperCorpus(t)
		for _, s := range w.scans {
			checkHead(t, w.db, s)
		}
		t.Logf("%d samples", len(w.scans))
	})
}

// TestMatchDoesNotAllocate: matching a 7-tower scan allocates nothing,
// on a score tie settled by common IDs, on a full tie settled by stop,
// and on every paper-world sample.
func TestMatchDoesNotAllocate(t *testing.T) {
	db, err := fingerprint.NewDB(fingerprint.DefaultScoring(), fingerprint.DefaultGamma, map[transit.StopID]cellular.Fingerprint{
		1: cells(1, 2, 3, 4, 5, 6, 7),
		2: cells(1, 2, 3, 4, 5, 6, 8),
		3: cells(9, 1, 2, 3, 4, 5, 7),
		4: cells(40, 41, 42, 43, 44, 45, 46),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		sample cellular.Fingerprint
		stop   transit.StopID
	}{
		// Stops 1–3 all score 5; stop 3 shares 6 IDs, the others 5.
		{"common-ID tie-break", cells(1, 2, 3, 4, 5, 9, 60), 3},
		// Stops 1 and 2 both score 6 and share 6 IDs; the lower stop wins.
		{"stop tie-break", cells(1, 2, 3, 4, 5, 6, 61), 1},
		{"no match", cells(50, 51, 52, 53, 54, 55, 1), 0},
	} {
		all := db.MatchAll(c.sample)
		if c.stop != 0 && (len(all) < 2 || all[0].Score != all[1].Score || all[0].Stop != c.stop) {
			t.Fatalf("%s: fixture does not tie as intended: %+v", c.name, all)
		}
		if allocs := testing.AllocsPerRun(100, func() { db.Match(c.sample) }); allocs != 0 {
			t.Errorf("%s: Match allocates %v times per call", c.name, allocs)
		}
	}
	w := paperCorpus(t)
	i := 0
	if allocs := testing.AllocsPerRun(len(w.scans), func() {
		w.db.Match(w.scans[i%len(w.scans)])
		i++
	}); allocs != 0 {
		t.Errorf("paper world: Match allocates %v times per sample", allocs)
	}
}

// BenchmarkMatch times per-sample matching the way the server meets
// it: the paper world's survey database against its riders' simulated
// scans, in upload order. MatchAll, the full ranking Match once ran,
// is the reference.
func BenchmarkMatch(b *testing.B) {
	w := paperCorpus(b)
	for _, fn := range []struct {
		name  string
		match func(cellular.Fingerprint)
	}{
		{"Match", func(s cellular.Fingerprint) { w.db.Match(s) }},
		{"MatchAll", func(s cellular.Fingerprint) { w.db.MatchAll(s) }},
	} {
		b.Run(fmt.Sprintf("%s/scans=%d", fn.name, len(w.scans)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn.match(w.scans[i%len(w.scans)])
			}
		})
	}
}
