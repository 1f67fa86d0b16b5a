package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: the bench wraps the public entry points (HTTP handler, API,
// trip log, stage hook) and keeps the spans in memory until exit.
// Spans of one trip share its ID as the trace.
type span struct {
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer collects spans. Safe for concurrent use: the batch-ingest
// path fires stage hooks from several goroutines.
type tracer struct {
	mu    sync.Mutex
	spans []span //lint:guardedby mu
}

// record appends one finished span.
func (t *tracer) record(trace, name, parent string, start, end time.Time) {
	s := span{Trace: trace, Name: name, Parent: parent, StartNs: start.UnixNano(), EndNs: end.UnixNano()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes is the per-layer digest of a span set.
type layerTimes struct {
	// count and total are the number of spans and their summed duration.
	count map[string]int
	total map[string]time.Duration
	// self is total minus the summed duration of the spans that name
	// this layer as their parent, measured on the same traces.
	self map[string]time.Duration
}

// digest sums span durations by layer and derives self times.
func digest(spans []span) layerTimes {
	lt := layerTimes{
		count: make(map[string]int),
		total: make(map[string]time.Duration),
		self:  make(map[string]time.Duration),
	}
	children := make(map[string]time.Duration)
	for _, s := range spans {
		d := time.Duration(s.EndNs - s.StartNs)
		lt.count[s.Name]++
		lt.total[s.Name] += d
		if s.Parent != "" {
			children[s.Parent] += d
		}
	}
	for name, total := range lt.total {
		lt.self[name] = total - children[name]
	}
	return lt
}

// meanUs is a layer's mean span duration in microseconds.
func (lt layerTimes) meanUs(name string) float64 {
	return perCountUs(lt.total[name], lt.count[name])
}

// selfUs is a layer's mean self time in microseconds.
func (lt layerTimes) selfUs(name string) float64 {
	return perCountUs(lt.self[name], lt.count[name])
}

// perCountUs divides a duration over n events, in microseconds.
func perCountUs(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// writeTrace flushes the spans as JSON lines.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close() //lint:allow errcheckio the encode error is the one reported; the close error cannot outrank it
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //lint:allow errcheckio the flush error is the one reported; the close error cannot outrank it
		return err
	}
	return f.Close()
}
