package obs

import (
	"bytes"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// buildSampleRegistry populates a registry with one instrument of every
// kind, labeled and unlabeled, including scrape-time collectors.
func buildSampleRegistry() *Registry {
	r := NewRegistry()
	for i := 0; i < 7; i++ {
		r.Counter("bp_trips_total", "Trips ingested.").Inc()
	}
	for i := 0; i < 3; i++ {
		r.Counter("bp_trips_total", "Trips ingested.", Label{Name: "shard", Value: "1"}).Inc()
	}
	r.GaugeFunc("bp_inflight", "In-flight batches.", func() float64 { return 2 })
	h := r.Histogram("bp_latency_seconds", "Stage latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.CounterFunc("bp_scraped_total", "Collector-backed counter.", func() float64 { return 42 })
	r.GaugeFunc("bp_temp", "Collector-backed gauge.", func() float64 { return 1.5 },
		Label{Name: "zone", Value: "a"})
	return r
}

// goldenExposition is the exact text the sample registry must render:
// families sorted by name, series sorted by label signature, histogram
// buckets cumulative with the implicit +Inf.
const goldenExposition = `# HELP bp_inflight In-flight batches.
# TYPE bp_inflight gauge
bp_inflight 2
# HELP bp_latency_seconds Stage latency.
# TYPE bp_latency_seconds histogram
bp_latency_seconds_bucket{le="0.1"} 1
bp_latency_seconds_bucket{le="1"} 2
bp_latency_seconds_bucket{le="+Inf"} 3
bp_latency_seconds_sum 5.55
bp_latency_seconds_count 3
# HELP bp_scraped_total Collector-backed counter.
# TYPE bp_scraped_total counter
bp_scraped_total 42
# HELP bp_temp Collector-backed gauge.
# TYPE bp_temp gauge
bp_temp{zone="a"} 1.5
# HELP bp_trips_total Trips ingested.
# TYPE bp_trips_total counter
bp_trips_total 7
bp_trips_total{shard="1"} 3
`

func TestWritePrometheusGolden(t *testing.T) {
	r := buildSampleRegistry()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenExposition {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), goldenExposition)
	}
}

func TestWritePrometheusByteStable(t *testing.T) {
	r := buildSampleRegistry()
	var first bytes.Buffer
	if err := r.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := r.WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("scrape %d differs from first:\n%s\nvs\n%s", i, again.String(), first.String())
		}
	}
}

// TestExpositionParses walks every line as a Prometheus text-format
// consumer would: comment lines declare known families, sample lines
// belong to the most recent TYPE, values parse as floats, and histogram
// bucket counts are monotonically non-decreasing toward +Inf.
func TestExpositionParses(t *testing.T) {
	var b bytes.Buffer
	if err := buildSampleRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var family, kind string
	var lastBucket int64
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("malformed comment line %q", line)
			}
			if parts[1] == "TYPE" {
				family, kind = parts[2], parts[3]
				lastBucket = -1
				switch kind {
				case "counter", "gauge", "histogram":
				default:
					t.Fatalf("unknown TYPE %q in %q", kind, line)
				}
			}
			continue
		}
		name := line
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		} else if i := strings.IndexByte(name, ' '); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if base != family && name != family {
			t.Fatalf("sample %q outside its family %q", line, family)
		}
		val := line[strings.LastIndexByte(line, ' ')+1:]
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if strings.HasSuffix(name, "_bucket") {
			if int64(f) < lastBucket {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			lastBucket = int64(f)
		}
	}
}

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	l1 := r.Counter("g", "g", Label{Name: "a", Value: "1"}, Label{Name: "b", Value: "2"})
	// Label order must not matter for identity.
	l2 := r.Counter("g", "g", Label{Name: "b", Value: "2"}, Label{Name: "a", Value: "1"})
	if l1 != l2 {
		t.Error("label order changed series identity")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "first")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.GaugeFunc("dual", "second", func() float64 { return 0 })
}

func TestCounterFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("cf_total", "cf", func() float64 { return 1 })
	r.CounterFunc("cf_total", "cf", func() float64 { return 2 })
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cf_total 2\n") {
		t.Errorf("re-registered func not replaced:\n%s", b.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "e", Label{Name: "p", Value: `a"b\c` + "\n"}).Inc()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{p="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped series %q not found in:\n%s", want, b.String())
	}
}

func TestMetricsHandler(t *testing.T) {
	h := buildSampleRegistry().Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if rec.Body.String() != goldenExposition {
		t.Errorf("handler body differs from WritePrometheus golden")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}
