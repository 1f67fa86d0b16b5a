package eval

import (
	"fmt"
	"sort"
	"strings"

	"busprobe/internal/cellular"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

// surveyRuns collects `runs` fingerprints at every platform of the given
// routes under varied conditions (standing / on bus, different weather),
// keyed by platform.
func surveyRuns(l *Lab, routes []transit.RouteID, runs int, seed uint64) (map[transit.PlatformID][]cellular.Fingerprint, error) {
	rng := stats.NewRNG(seed).Fork("fig2-survey")
	out := make(map[transit.PlatformID][]cellular.Fingerprint)
	for _, rid := range routes {
		rt, err := l.route(rid)
		if err != nil {
			return nil, err
		}
		for _, pid := range rt.Platforms {
			if _, done := out[pid]; done {
				continue
			}
			p := l.World.Transit.Platform(pid)
			for r := 0; r < runs; r++ {
				cond := cellular.Condition{OnBus: r%2 == 1, Weather: rng.Range(-1, 1)}
				fp := l.World.Cells.ScanFingerprint(p.Pos, cond, rng)
				if len(fp) > 0 {
					out[pid] = append(out[pid], fp)
				}
			}
		}
	}
	return out, nil
}

// Fig2bSelfSimilarity regenerates Fig. 2(b): the CDF of similarity
// scores between fingerprints collected at the same stop in different
// runs, per route. The paper reports ~90% of scores above 3 and >50%
// above 4.
func Fig2bSelfSimilarity(l *Lab, routes []transit.RouteID, runs int, seed uint64) (Report, error) {
	if len(routes) == 0 {
		routes = defaultStudyRoutes(l)
	}
	survey, err := surveyRuns(l, routes, runs, seed)
	if err != nil {
		return Report{}, err
	}
	sc := fingerprint.DefaultScoring()
	overall := &stats.ECDF{}
	perRoute := make(map[transit.RouteID]*stats.ECDF)
	for _, rid := range routes {
		rt, err := l.route(rid)
		if err != nil {
			return Report{}, err
		}
		e := &stats.ECDF{}
		for _, pid := range rt.Platforms {
			fps := survey[pid]
			for i := 0; i < len(fps); i++ {
				for j := i + 1; j < len(fps); j++ {
					s := fingerprint.Similarity(fps[i], fps[j], sc)
					e.Add(s)
					overall.Add(s)
				}
			}
		}
		perRoute[rid] = e
	}

	tbl := newTable("Route", "N pairs", "P(score>=3)", "P(score>=4)", "median")
	for _, rid := range routes {
		e := perRoute[rid]
		if e.N() == 0 {
			continue
		}
		tbl.addRowf("%s|%d|%.3f|%.3f|%.2f",
			rid, e.N(), 1-e.At(3-1e-9), 1-e.At(4-1e-9), e.Median())
	}
	ge3 := 1 - overall.At(3-1e-9)
	ge4 := 1 - overall.At(4-1e-9)
	text := tbl.String() + fmt.Sprintf(
		"\noverall: P(score>=3) = %.3f (paper ~0.9), P(score>=4) = %.3f (paper >0.5)\n", ge3, ge4)

	return Report{
		Name: "Fig. 2(b) — self-similarity of same-stop fingerprints",
		Text: text,
		Metrics: map[string]float64{
			"ge3": ge3,
			"ge4": ge4,
		},
	}, nil
}

// Fig2cCrossSimilarity regenerates Fig. 2(c): the CDF of similarity
// scores between fingerprints of *different* stops, overall (platform
// pairs) and effective (after aggregating opposite-side platforms into
// one stop). The paper reports >70% of pairs scoring 0 and ~94% below 2
// in the effective treatment.
func Fig2cCrossSimilarity(l *Lab, routes []transit.RouteID, runs int, seed uint64) (Report, error) {
	if len(routes) == 0 {
		routes = defaultStudyRoutes(l)
	}
	survey, err := surveyRuns(l, routes, runs, seed)
	if err != nil {
		return Report{}, err
	}
	sc := fingerprint.DefaultScoring()
	tdb := l.World.Transit

	// Representative fingerprint per platform: first run.
	type entry struct {
		pid  transit.PlatformID
		stop transit.StopID
		fp   cellular.Fingerprint
	}
	var entries []entry
	for pid, fps := range survey {
		if len(fps) == 0 {
			continue
		}
		entries = append(entries, entry{pid: pid, stop: tdb.Platform(pid).Stop, fp: fps[0]})
	}
	// Deterministic order.
	sort.Slice(entries, func(i, j int) bool { return entries[i].pid < entries[j].pid })

	overall := &stats.ECDF{}
	effective := &stats.ECDF{}
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			a, b := entries[i], entries[j]
			if a.pid == b.pid {
				continue
			}
			s := fingerprint.Similarity(a.fp, b.fp, sc)
			overall.Add(s)
			// Effective: opposite platforms of one logical stop count
			// as the same place and are excluded from the cross-stop
			// distribution.
			if a.stop != b.stop {
				effective.Add(s)
			}
		}
	}
	if overall.N() == 0 {
		return Report{}, fmt.Errorf("eval: no cross-stop pairs")
	}

	zeroOverall := overall.At(0)
	lt2Overall := overall.At(2 - 1e-9)
	zeroEff := effective.At(0)
	lt2Eff := effective.At(2 - 1e-9)

	tbl := newTable("Distribution", "N pairs", "P(score=0)", "P(score<2)")
	tbl.addRowf("overall|%d|%.3f|%.3f", overall.N(), zeroOverall, lt2Overall)
	tbl.addRowf("effective|%d|%.3f|%.3f", effective.N(), zeroEff, lt2Eff)
	text := tbl.String() +
		"\npaper: >70% of pairs score 0; >=94% below 2 after the effective treatment\n"

	return Report{
		Name: "Fig. 2(c) — cross-stop fingerprint similarity",
		Text: text,
		Metrics: map[string]float64{
			"zero_overall": zeroOverall,
			"lt2_overall":  lt2Overall,
			"zero_eff":     zeroEff,
			"lt2_eff":      lt2Eff,
		},
	}, nil
}

// Fig3ExampleArea regenerates Fig. 3: the cellular fingerprints of a
// contiguous run of stops along one route, showing how the visible
// cell-ID sets differ stop to stop.
func Fig3ExampleArea(l *Lab, routeID transit.RouteID, nStops int, seed uint64) (Report, error) {
	rt, err := l.route(routeID)
	if err != nil {
		return Report{}, err
	}
	if nStops <= 0 || nStops > rt.NumStops() {
		nStops = min(15, rt.NumStops())
	}
	rng := stats.NewRNG(seed).Fork("fig3")
	tbl := newTable("Stop", "Cellular fingerprint (IDs by descending RSS)")
	var prev cellular.Fingerprint
	distinct := 0
	for i := 0; i < nStops; i++ {
		st := l.World.Transit.Stop(rt.Stops[i])
		fp := l.World.Cells.ScanFingerprint(st.Pos, cellular.Condition{}, rng)
		tbl.addRow(fmt.Sprintf("%s", st.Name), fp.String())
		if !fp.Equal(prev) {
			distinct++
		}
		prev = fp
	}
	text := tbl.String()
	return Report{
		Name: fmt.Sprintf("Fig. 3 — example area fingerprints (route %s)", routeID),
		Text: text,
		Metrics: map[string]float64{
			"stops":    float64(nStops),
			"distinct": float64(distinct),
		},
	}, nil
}

// TableIMatchingInstance regenerates Table I: the worked Smith–Waterman
// alignment of c_upload = {1,2,3,4,5} against c_database = {1,7,3,5}.
func TableIMatchingInstance() Report {
	sc := fingerprint.DefaultScoring()
	up := cellular.Fingerprint{1, 2, 3, 4, 5}
	db := cellular.Fingerprint{1, 7, 3, 5}
	al := fingerprint.Align(up, db, sc)
	var b strings.Builder
	fmt.Fprintf(&b, "c_upload   = %v\n", up)
	fmt.Fprintf(&b, "c_database = %v\n", db)
	fmt.Fprintf(&b, "alignment: %d matches, %d mismatch, %d gap\n",
		al.Matches, al.Mismatches, al.Gaps)
	fmt.Fprintf(&b, "score = %d(%.1f) - %d(%.1f) - %d(%.1f) = %.1f (paper: 2.4)\n",
		al.Matches, sc.Match, al.Mismatches, sc.Mismatch, al.Gaps, sc.Gap, al.Score)
	return Report{
		Name: "Table I — bus stop matching instance",
		Text: b.String(),
		Metrics: map[string]float64{
			"score":      al.Score,
			"matches":    float64(al.Matches),
			"mismatches": float64(al.Mismatches),
			"gaps":       float64(al.Gaps),
		},
	}
}

// defaultStudyRoutes picks the Fig. 2 measurement routes present in the
// lab's plan (the paper used routes 179, 199, 243, 252, 257).
func defaultStudyRoutes(l *Lab) []transit.RouteID {
	want := []transit.RouteID{"179", "199", "243", "252", "257"}
	var out []transit.RouteID
	for _, id := range want {
		if l.World.Transit.Route(id) != nil {
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		for _, rt := range l.World.Transit.Routes() {
			out = append(out, rt.ID)
		}
	}
	return out
}
