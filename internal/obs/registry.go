package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing instrument. The hot path is a
// single atomic add; readers never block writers.
type Counter struct {
	v atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// metric kinds, named by their Prometheus TYPE keyword.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labeled instance of a family. Exactly one of the value
// fields is set; fn-backed series are evaluated at scrape time with no
// registry lock held.
type series struct {
	labels string // rendered {k="v",...} signature, "" for unlabeled
	ctr    *Counter
	hist   *Histogram
	fn     func() float64
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   string
	series map[string]*series
}

// Registry is the process-wide metric store. Instrument registration is
// idempotent — asking for the same (name, labels) again returns the
// existing instrument — so shards and handlers can register without
// coordinating. Safe for concurrent use; the mutex guards only the
// family/series maps, never a user callback or a channel operation.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family //lint:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels builds the deterministic series signature: labels sorted
// by name, values escaped per the Prometheus text format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the text format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a HELP string per the text format.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	h = strings.ReplaceAll(h, "\n", `\n`)
	return h
}

// lookup finds or creates the (family, series) cell, enforcing that a
// name keeps one kind for the registry's lifetime.
func (r *Registry) lookup(name, help, kind string, labels []Label) *series {
	sig := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, fam.kind, kind))
	}
	s := fam.series[sig]
	if s == nil {
		s = &series{labels: sig}
		fam.series[sig] = s
	}
	return s
}

// Counter returns the counter named name with the given labels,
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ctr == nil && s.fn == nil {
		s.ctr = &Counter{}
	}
	if s.ctr == nil {
		panic(fmt.Sprintf("obs: counter %q already registered as a func", name))
	}
	return s.ctr
}

// Histogram returns the histogram named name with the given bucket
// upper bounds and labels, creating it on first use. Bounds must be
// sorted ascending; the +Inf overflow bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = NewHistogram(bounds)
	}
	return s.hist
}

// CounterFunc registers a scrape-time collector as a counter series:
// fn is evaluated at exposition with no registry lock held. Use it to
// project existing atomically-maintained counters (backend stats, stage
// metrics) into the registry without double bookkeeping. Re-registering
// the same (name, labels) replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ctr = nil
	s.fn = fn
}

// GaugeFunc registers a scrape-time collector as a gauge series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
}

// formatFloat renders a float64 the way Prometheus clients do.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every family in the Prometheus text format
// (version 0.0.4), deterministically: families sorted by name, series
// sorted by label signature. Func-backed series are evaluated after the
// registry lock is released, so a collector may itself take locks.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type pendingSeries struct {
		labels string
		ctr    *Counter
		hist   *Histogram
		fn     func() float64
	}
	type pendingFamily struct {
		name, help, kind string
		series           []pendingSeries
	}

	// Snapshot structure under the lock, read values after.
	r.mu.Lock()
	fams := make([]pendingFamily, 0, len(r.families))
	for _, fam := range r.families {
		pf := pendingFamily{name: fam.name, help: fam.help, kind: fam.kind}
		for _, s := range fam.series {
			pf.series = append(pf.series, pendingSeries{
				labels: s.labels, ctr: s.ctr, hist: s.hist, fn: s.fn,
			})
		}
		sort.Slice(pf.series, func(i, j int) bool { return pf.series[i].labels < pf.series[j].labels })
		fams = append(fams, pf)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, fam := range fams {
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.name, escapeHelp(fam.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.kind); err != nil {
			return err
		}
		for _, s := range fam.series {
			if err := writeSeries(w, fam.name, s.labels, s.ctr, s.hist, s.fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one series' sample lines.
func writeSeries(w io.Writer, name, labels string, ctr *Counter, hist *Histogram, fn func() float64) error {
	switch {
	case fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(fn()))
		return err
	case ctr != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, ctr.Value())
		return err
	case hist != nil:
		return writeHistogram(w, name, labels, hist.Snapshot())
	}
	return nil
}

// writeHistogram renders the cumulative bucket lines plus _sum and
// _count, merging the le label into the series' label set.
func writeHistogram(w io.Writer, name, labels string, snap HistogramSnapshot) error {
	var cum int64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, mergeLE(labels, formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += snap.Counts[len(snap.Bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLE(labels, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, snap.Count)
	return err
}

// mergeLE appends the le label to a rendered label signature.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// Handler serves the registry in the Prometheus text format (the
// GET /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The status line is on the wire once writing starts; a failed
		// scrape write only means the scraper went away.
		_ = r.WritePrometheus(w) //lint:allow errcheckio headers already sent; a mid-scrape disconnect has no one to tell
	})
}
