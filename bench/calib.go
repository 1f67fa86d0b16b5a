package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"busprobe/internal/clock"
)

// The VM this benchmark runs on does not hold its speed: a fixed
// single-threaded loop here swings by a factor of two over seconds
// (SMT neighbours, frequency), with no steal time reported, so every
// wall-clock number inherits a 10–20 % spread whatever the run length.
// The speedometer measures that swing and divides it out. Between
// rounds of load — when a closed loop leaves the server idle — it
// times a fixed kernel that shares no code with the repository, and
// each round's numbers are scaled to what a machine running the kernel
// at refKernel would have shown. A faster server still reads faster:
// the kernel does not speed up with it.

// refKernel is the kernel time of the reference machine: a round number
// close to what this VM reads when its neighbours are quiet, so that
// scaled and raw numbers agree then. It only fixes the scale of the
// reported numbers; a ratio of two runs does not depend on it.
const refKernel = time.Millisecond

// burstKernels is the kernels each CPU times per burst (~20 ms).
const burstKernels = 16

// speedometer times the calibration kernel. Its inputs are read-only
// once built, so bursts run the kernel from several goroutines.
type speedometer struct {
	a, b []int32
	mem  []uint64
	// quiet is held for the length of a burst. A load stream that runs
	// beside the metered one (read_mixed's paced writer) holds it around
	// each request, so the two never overlap.
	quiet sync.Mutex
	// sink keeps the kernel's result alive so the compiler cannot drop
	// the work.
	sink atomic.Uint64
}

// newSpeedometer allocates the kernel's inputs: two 512-symbol
// sequences for the compute half and an 8 MiB table for the memory
// half.
func newSpeedometer() *speedometer {
	s := &speedometer{a: make([]int32, 512), b: make([]int32, 512), mem: make([]uint64, 1<<20)}
	for i := range s.a {
		s.a[i] = int32(i * 7 % 13)
		s.b[i] = int32(i * 5 % 11)
	}
	for i := range s.mem {
		s.mem[i] = uint64(i)
	}
	return s
}

// kernel is one unit of fixed work: a local-alignment table over the
// two sequences (branchy integer compute in L1, like fingerprint
// matching) and 40 000 dependent loads scattered over the table
// (cache misses, like map lookups and JSON decoding).
func (s *speedometer) kernel() uint64 {
	n := len(s.a)
	prev := make([]int32, n+1)
	cur := make([]int32, n+1)
	var best int32
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			v := prev[j-1] - 2
			if s.a[i-1] == s.b[j-1] {
				v = prev[j-1] + 3
			}
			v = max(v, prev[j]-1, cur[j-1]-1, 0)
			cur[j] = v
			best = max(best, v)
		}
		prev, cur = cur, prev
	}
	idx, sum := uint64(best), uint64(0)
	for k := 0; k < 40000; k++ {
		idx = idx*2862933555777941757 + 3037000493
		sum += s.mem[idx%uint64(len(s.mem))]
	}
	return sum
}

// burst runs burstKernels kernels on every CPU at once and returns how
// slow the machine is running relative to the reference: 1 at
// reference speed, 2 when everything takes twice as long. All CPUs are
// timed because the server's batch ingest uses all of them, and their
// speeds wander apart. The reading is the median kernel time, so the
// first kernels of a burst (cold caches, a CPU waking from idle) and a
// kernel hit by an interrupt do not colour it.
func (s *speedometer) burst() float64 {
	s.quiet.Lock()
	defer s.quiet.Unlock()
	n := runtime.GOMAXPROCS(0)
	took := make([]float64, n*burstKernels)
	var wg sync.WaitGroup
	for cpu := 0; cpu < n; cpu++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink uint64
			for k := 0; k < burstKernels; k++ {
				t0 := clk.Now()
				sink += s.kernel()
				took[cpu*burstKernels+k] = float64(clock.Since(clk, t0))
			}
			s.sink.Add(sink)
		}()
	}
	wg.Wait()
	return median(took) / float64(refKernel)
}
