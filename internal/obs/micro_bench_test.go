package obs

import (
	"context"
	"testing"
	"time"

	"busprobe/internal/clock"
)

// These micro-benchmarks price the observability primitives a single
// trip pays on the ingest path: roughly six Emits, one EnsureTrip, five
// histogram observations, and a dozen clock reads. Their sum is the
// per-trip instrumentation cost; end to end it shows (or hides in the
// noise) in `go run -C bench . --workload ingest_batch`.

var microEpoch = time.Date(2015, 6, 29, 0, 0, 0, 0, time.UTC)

func BenchmarkEmit(b *testing.B) {
	tr := NewTracer(clock.Wall{}, DefaultTraceCapacity)
	attrs := []Attr{{Key: "shard", Value: "0"}}
	for i := 0; i < b.N; i++ {
		tr.Emit("trip-batch-17", "stage.match", microEpoch, microEpoch, attrs...)
	}
}

func BenchmarkEnsureTrip(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_ = EnsureTrip(ctx, "batch-17")
	}
}

func BenchmarkHistObserve(b *testing.B) {
	h := NewHistogram(LatencyBuckets)
	for i := 0; i < b.N; i++ {
		h.Observe(0.0003)
	}
}

func BenchmarkWallNow(b *testing.B) {
	c := clock.Wall{}
	for i := 0; i < b.N; i++ {
		_ = c.Now()
	}
}
