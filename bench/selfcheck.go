package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// contractMetric is one end_to_end entry of BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the part of BENCHMARK.json the bench reads back.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

// loadContract reads BENCHMARK.json from the repository root.
func loadContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// noiseRow is one (workload, metric) pair of the noise table.
type noiseRow struct {
	workload, metric string
	bound            float64
	spreadA, spreadB float64
	medA, medB       float64
	// worse is how much worse set B's median is than set A's, as a
	// share of A's (negative when B is better).
	worse float64
}

// ok is the acceptance rule the driver applies: both spreads within
// the bound (set-up time excepted) and the second median not worse
// than the first by more than the bound.
func (r noiseRow) ok() bool {
	if r.worse > r.bound {
		return false
	}
	return r.metric == "setup_s" || (r.spreadA <= r.bound && r.spreadB <= r.bound)
}

// noiseOf compares two sets of one pair's values.
func noiseOf(workload string, m contractMetric, a, b []float64) noiseRow {
	r := noiseRow{workload: workload, metric: m.Name, bound: m.Bound,
		spreadA: quartileSpread(a), spreadB: quartileSpread(b), medA: median(a), medB: median(b)}
	if r.medA != 0 {
		r.worse = (r.medB - r.medA) / r.medA
		if m.Better == "higher" {
			r.worse = -r.worse
		}
	}
	return r
}

// selfcheckRuns is the runs per set and workload: the sample the
// benchmark contract's own noise check takes.
const selfcheckRuns = 10

// runSelfcheck runs every workload selfcheckRuns times in each of two
// sets (seeds 1..10, then 11..20) on the same tree, prints the noise
// table, writes it to bench/NOISE.md, and fails if any pair would be
// refused.
func runSelfcheck(ctx context.Context, s *session, seconds time.Duration) error {
	const runs = selfcheckRuns
	c, err := loadContract(s.root)
	if err != nil {
		return err
	}
	var rows []noiseRow
	for _, w := range c.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for set := range sets {
			for i := 1; i <= runs; i++ {
				seed := uint64(set*runs + i)
				h, err := s.harnessFor(seed, seconds)
				if err != nil {
					return err
				}
				res, err := runOnce(ctx, h, w.Name, false, "")
				if err != nil {
					return fmt.Errorf("bench: selfcheck %s seed %d: %w", w.Name, seed, err)
				}
				if !res.Correct {
					return fmt.Errorf("bench: selfcheck %s seed %d: %d of %d operations failed", w.Name, seed, res.Failed, res.Attempted)
				}
				for _, m := range c.EndToEnd {
					sets[set][m.Name] = append(sets[set][m.Name], res.Metrics[m.Name].Value)
				}
				if err := os.RemoveAll(h.tmp); err != nil {
					log.Printf("warning: %v", err)
				}
			}
		}
		for _, m := range c.EndToEnd {
			rows = append(rows, noiseOf(w.Name, m, sets[0][m.Name], sets[1][m.Name]))
		}
	}
	table := noiseTable(rows, runs, seconds)
	fmt.Print(table)
	if err := os.WriteFile(filepath.Join(s.root, "bench", "NOISE.md"), []byte(table), 0o644); err != nil {
		return err
	}
	var bad []string
	for _, r := range rows {
		if !r.ok() {
			bad = append(bad, r.workload+"/"+r.metric)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("bench: selfcheck: outside their bounds: %s", strings.Join(bad, ", "))
	}
	return nil
}

// noiseTable renders the rows as the markdown committed in NOISE.md.
func noiseTable(rows []noiseRow, runs int, seconds time.Duration) string {
	var b strings.Builder
	env := environment()
	fmt.Fprintf(&b, "# Benchmark noise\n\n")
	fmt.Fprintf(&b, "Written by `go run -C bench . -selfcheck`: two sets of %d runs per workload, %.0f s measured per run,\n", runs, seconds.Seconds())
	fmt.Fprintf(&b, "seeds 1–%d and %d–%d, on %v vCPU (GOMAXPROCS %v), %v, kernel %v.\n\n", runs, runs+1, 2*runs,
		env["nproc"], env["gomaxprocs"], env["go"], env["kernel"])
	fmt.Fprintf(&b, "Spread is (Q3 − Q1) / median of a set's values, quartiles as Python's `statistics.quantiles(v, n=4)`.\n")
	fmt.Fprintf(&b, "\"B worse\" is how much worse set B's median is than set A's. A pair passes when both spreads\n")
	fmt.Fprintf(&b, "(set-up time excepted) and \"B worse\" stay within the bound.\n\n")
	fmt.Fprintf(&b, "| workload | metric | median A | median B | spread A | spread B | B worse | bound | ok |\n")
	fmt.Fprintf(&b, "|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		verdict := "yes"
		if !r.ok() {
			verdict = "NO"
		}
		fmt.Fprintf(&b, "| %s | %s | %.4g | %.4g | %.1f %% | %.1f %% | %+.1f %% | %.0f %% | %s |\n",
			r.workload, r.metric, r.medA, r.medB, 100*r.spreadA, 100*r.spreadB, 100*r.worse, 100*r.bound, verdict)
	}
	return b.String()
}
