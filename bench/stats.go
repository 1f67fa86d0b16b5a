package main

import (
	"sort"
	"time"
)

// roundLen is the load between two calibration bursts. Rates are the
// median over rounds, which shrugs off a stall confined to a few of
// them; short rounds keep each one close to the machine speed the
// bursts around it measured.
const roundLen = 500 * time.Millisecond

// round is one stretch of load between two calibration bursts.
type round struct {
	// ops completed in dur of wall time.
	ops int
	dur time.Duration
	// slow is how slow the machine ran over the stretch relative to the
	// reference (the mean of the bursts before and after it).
	slow float64
}

// opLog records one stream of timed operations in a measured phase.
type opLog struct {
	// lat holds each op's latency scaled to reference machine speed,
	// raw the latency as measured.
	lat, raw []time.Duration
	rounds   []round
	failed   int
	firstErr string
}

// fail records one failed operation, keeping the first cause.
func (l *opLog) fail(err error) {
	l.failed++
	if l.firstErr == "" && err != nil {
		l.firstErr = err.Error()
	}
}

// attempted counts successes plus failures.
func (l *opLog) attempted() int { return len(l.raw) + l.failed }

// loadTime is the wall time spent under load (bursts excluded).
func (l *opLog) loadTime() time.Duration {
	var d time.Duration
	for _, r := range l.rounds {
		d += r.dur
	}
	return d
}

// meter drives a stretch of work through calibrated rounds: ops
// accumulate raw until the round is due, then a burst closes it and
// scales its ops and its wall time to reference machine speed.
type meter struct {
	sp      *speedometer
	log     *opLog
	slow0   float64
	start   time.Time
	pending []time.Duration
	// scaled is the wall time of the closed rounds at reference speed
	// (bursts excluded).
	scaled time.Duration
}

// newMeter takes the opening burst and starts the first round.
func newMeter(sp *speedometer, log *opLog) *meter {
	m := &meter{sp: sp, log: log, slow0: sp.burst()}
	m.start = clk.Now()
	return m
}

// op records one successful operation in the current round and closes
// the round if it has run its length.
func (m *meter) op(lat time.Duration) {
	m.pending = append(m.pending, lat)
	m.tick()
}

// single records one operation that fills a round by itself (a
// restart cycle) and closes the round.
func (m *meter) single(lat time.Duration) {
	m.pending = append(m.pending, lat)
	m.endRound()
}

// tick closes the current round if it has run its length.
func (m *meter) tick() {
	if clk.Now().Sub(m.start) >= roundLen {
		m.endRound()
	}
}

// endRound closes the current round with a burst and opens the next.
func (m *meter) endRound() {
	dur := clk.Now().Sub(m.start)
	m.closeRound(dur, m.sp.burst())
	m.start = clk.Now()
}

// closeRound books a round of the given wall time whose closing burst
// read slow1: the round ran at the mean of its two bursts.
func (m *meter) closeRound(dur time.Duration, slow1 float64) {
	slow := (m.slow0 + slow1) / 2
	m.scaled += time.Duration(float64(dur) / slow)
	if len(m.pending) > 0 {
		m.log.rounds = append(m.log.rounds, round{ops: len(m.pending), dur: dur, slow: slow})
		m.log.raw = append(m.log.raw, m.pending...)
		for _, lat := range m.pending {
			m.log.lat = append(m.log.lat, time.Duration(float64(lat)/slow))
		}
		m.pending = m.pending[:0]
	}
	m.slow0 = slow1
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples, or 0 for an empty set.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p/100*float64(len(sorted)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for an empty set.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// roundRates is every full round's rate in items per second, raw or
// scaled to reference machine speed. The last round of a phase may be
// cut short by the deadline; rounds under half length are left out,
// unless the phase has no other.
func roundRates(rounds []round, items int, scaled bool) []float64 {
	var full, short []float64
	for _, r := range rounds {
		if r.dur <= 0 {
			continue
		}
		rate := float64(r.ops*items) / r.dur.Seconds()
		if scaled {
			rate *= r.slow
		}
		if r.dur < roundLen/2 {
			short = append(short, rate)
		} else {
			full = append(full, rate)
		}
	}
	if len(full) == 0 {
		return short
	}
	return full
}

// meanRate is total work over wall time.
func meanRate(ops, items int, phase time.Duration) float64 {
	if phase <= 0 {
		return 0
	}
	return float64(ops*items) / phase.Seconds()
}

// meanDuration averages the samples (0 for none).
func meanDuration(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return sum / time.Duration(len(samples))
}

// quartileSpread is the noise measure the benchmark contract fixes:
// the distance between the first and third quartile as a share of the
// median, with quartiles by the exclusive method of Python's
// statistics.quantiles(values, n=4).
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	med := median(vals)
	if n < 2 || med == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		frac := pos - float64(j)
		if j < 1 {
			return sorted[0]
		}
		if j >= n {
			return sorted[n-1]
		}
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}
