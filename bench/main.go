// Command bench is the repository's one benchmark: four long
// closed-loop workloads against the real busprobe-server binary, four
// end-to-end metrics per workload, and a per-layer ledger timed from
// outside. See README.md for the workloads, the metrics and the
// layer → end-to-end predictions; BENCHMARK.json at the repository
// root is the contract it is run under:
//
//	go run -C bench . --workload NAME --seed N --seconds S --trace 0|1
//	go run -C bench . -selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"busprobe/internal/lab"
	"busprobe/internal/probe"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output, exactly the
// keys the benchmark contract names.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits are the four end-to-end metrics every workload prints
// with --trace 0. What "op" means is the workload's: an upload request
// (one trip, or one 64-trip batch), a full-map read, or a restart.
var endToEndUnits = map[string]string{
	"setup_s":   "s",
	"ops_per_s": "1/s",
	"op_p50_ms": "ms",
	"op_p90_ms": "ms",
}

// perLayerUnits are the per-layer metrics every workload prints with
// --trace 1. The first block comes from the workload run itself, the
// rest from the in-process ledger.
var perLayerUnits = map[string]string{
	"run.raw_mean_ops_per_s": "1/s",
	"run.raw_op_p50_ms":      "ms",
	"run.raw_op_p99_ms":      "ms",
	"run.op_samples":         "count",
	"run.machine_slowness":   "ratio",
	"proc.cpu_us_per_op":     "us",
	"proc.rss_peak_mb":       "MiB",
	"proc.boot_empty_s":      "s",
	"mixed.upload_p50_ms":    "ms",
	"mixed.upload_p90_ms":    "ms",
	"mixed.upload_samples":   "count",
	"traffic.versions_seen":  "count",

	"phone.encode_us":                   "us",
	"phone.trip_bytes":                  "bytes",
	"client.upload_wire_us":             "us",
	"client.read_wire_us":               "us",
	"http.upload_handler_us":            "us",
	"http.batch_handler_us_per_trip":    "us",
	"http.traffic_handler_us":           "us",
	"http.traffic_304_us":               "us",
	"http.traffic_body_bytes":           "bytes",
	"http.traffic_render_us":            "us",
	"backend.process_trip_us":           "us",
	"backend.process_trip_store_us":     "us",
	"backend.process_trips_us_per_trip": "us",
	"coordinator.process_trip_us":       "us",
	"stage.match_us":                    "us",
	"stage.cluster_us":                  "us",
	"stage.map_us":                      "us",
	"stage.extract_us":                  "us",
	"stage.estimate_us":                 "us",
	"store.append_us":                   "us",
	"store.plan_s":                      "s",
	"store.replay_scan_s":               "s",
	"store.snapshot_bytes":              "bytes",
	"store.log_bytes":                   "bytes",
	"store.records_replayed":            "count",
	"server.recover_s":                  "s",
	"server.import_state_s":             "s",
	"server.export_state_s":             "s",
	"server.checkpoint_s":               "s",
	"traffic.snapshot_load_ns":          "ns",
	"traffic.clone_us":                  "us",
	"ledger.write_unattributed_pct":     "%",
	"ledger.read_unattributed_pct":      "%",
	"ledger.restart_unattributed_pct":   "%",
	"trace.overhead_pct":                "%",
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// opsPerS is the workload's rate in items per second, scaled to
// reference machine speed or as measured: the median round's rate, or
// on restart (one op per round) the acked trips restored per second of
// the median outage.
func opsPerS(o *outcome, scaled bool) float64 {
	if o.perRound {
		return median(roundRates(o.ops.rounds, o.items, scaled))
	}
	lat := o.ops.raw
	if scaled {
		lat = o.ops.lat
	}
	if p50 := percentile(lat, 50); p50 > 0 {
		return float64(o.items) / p50.Seconds()
	}
	return 0
}

// endToEnd reduces an outcome to the four end-to-end values, all
// scaled to reference machine speed.
func endToEnd(o *outcome) map[string]float64 {
	return map[string]float64{
		"setup_s":   median(o.setups),
		"ops_per_s": opsPerS(o, true),
		"op_p50_ms": ms(percentile(o.ops.lat, 50)),
		"op_p90_ms": ms(percentile(o.ops.lat, 90)),
	}
}

// runLayers reduces an outcome to the per-layer values the workload
// run itself yields: the raw wall-clock readings behind the scaled
// end-to-end numbers, and the server child's resource use. Metrics of
// a stream the workload does not have (the paced writer outside
// read_mixed) read 0.
func runLayers(o *outcome) map[string]float64 {
	var slow []float64
	for _, r := range o.ops.rounds {
		slow = append(slow, r.slow)
	}
	m := map[string]float64{
		"run.raw_op_p50_ms":     ms(percentile(o.ops.raw, 50)),
		"run.raw_op_p99_ms":     ms(percentile(o.ops.raw, 99)),
		"run.op_samples":        float64(len(o.ops.raw)),
		"run.machine_slowness":  median(slow),
		"proc.cpu_us_per_op":    0,
		"proc.rss_peak_mb":      o.rssMB,
		"proc.boot_empty_s":     median(o.boots),
		"traffic.versions_seen": float64(o.versions),
		"mixed.upload_p50_ms":   0,
		"mixed.upload_p90_ms":   0,
		"mixed.upload_samples":  0,
	}
	if o.perRound {
		m["run.raw_mean_ops_per_s"] = meanRate(len(o.ops.raw), o.items, o.ops.loadTime())
	} else if mean := meanDuration(o.ops.raw); mean > 0 {
		m["run.raw_mean_ops_per_s"] = float64(o.items) / mean.Seconds()
	} else {
		m["run.raw_mean_ops_per_s"] = 0
	}
	if n := len(o.ops.raw); n > 0 {
		m["proc.cpu_us_per_op"] = o.cpuS * 1e6 / float64(n)
	}
	if o.writer != nil {
		m["mixed.upload_p50_ms"] = ms(percentile(o.writer.raw, 50))
		m["mixed.upload_p90_ms"] = ms(percentile(o.writer.raw, 90))
		m["mixed.upload_samples"] = float64(len(o.writer.raw))
	}
	return m
}

// render turns values into printed metrics, requiring exactly the
// declared names.
func render(values map[string]float64, units map[string]string) (map[string]metric, error) {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", name)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	for name := range values {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("bench: metric %s is not declared", name)
		}
	}
	return out, nil
}

// summarize folds an outcome's op counts and correctness into a result.
func summarize(o *outcome, metrics map[string]metric) result {
	r := result{Metrics: metrics, Attempted: o.ops.attempted(), Failed: o.ops.failed}
	if o.writer != nil {
		r.Attempted += o.writer.attempted()
		r.Failed += o.writer.failed
	}
	// A correctness failure is a failed operation: the read that should
	// have matched the reference did not.
	r.Attempted += 1
	r.Failed += len(o.problems)
	r.Correct = r.Failed == 0
	return r
}

// runOnce runs one workload end to end and reduces it to a result:
// the end-to-end metrics untraced, or the per-layer metrics (workload
// run plus ledger, spans flushed to tracePath) traced.
func runOnce(ctx context.Context, h *harness, workload string, trace bool, tracePath string) (result, error) {
	o, err := h.runWorkload(ctx, workload)
	if err != nil {
		return result{}, err
	}
	for _, p := range o.problems {
		log.Printf("INCORRECT: %s", p)
	}
	for _, l := range []*opLog{o.ops, o.writer} {
		if l != nil && l.failed > 0 {
			log.Printf("FAILED: %d operations, first: %s", l.failed, l.firstErr)
		}
	}
	e2e := endToEnd(o)
	layers := runLayers(o)
	log.Printf("%s: setup %.3fs ops_per_s %.2f p50 %.3fms p90 %.3fms over %d ops in %.1fs of load",
		workload, e2e["setup_s"], e2e["ops_per_s"], e2e["op_p50_ms"], e2e["op_p90_ms"], len(o.ops.raw), o.ops.loadTime().Seconds())
	log.Printf("%s: raw wall clock: ops_per_s %.2f p50 %.3fms p90 %.3fms; machine slowness %.3f",
		workload, opsPerS(o, false), layers["run.raw_op_p50_ms"], ms(percentile(o.ops.raw, 90)), layers["run.machine_slowness"])
	if !trace {
		metrics, err := render(e2e, endToEndUnits)
		if err != nil {
			return result{}, err
		}
		return summarize(o, metrics), nil
	}
	tr := &tracer{}
	values, err := runLedger(ctx, h.corpus, h.sz, h.tmp, tr)
	if err != nil {
		return result{}, err
	}
	for k, v := range layers {
		values[k] = v
	}
	if tracePath != "" {
		if err := writeTrace(tracePath, tr.snapshot()); err != nil {
			return result{}, err
		}
	}
	metrics, err := render(values, perLayerUnits)
	if err != nil {
		return result{}, err
	}
	return summarize(o, metrics), nil
}

// repoRoot finds the checkout root from the bench module directory
// `go run -C bench .` starts in (or from the root itself).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "busprobe-server", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("bench: no cmd/busprobe-server above %s; run from the repository checkout", wd)
}

// buildServer compiles cmd/busprobe-server into the build directory.
func buildServer(root, buildDir string) (string, time.Duration, error) {
	bin := filepath.Join(buildDir, "busprobe-server")
	t0 := clk.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/busprobe-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("bench: go build ./cmd/busprobe-server: %w\n%s", err, out)
	}
	return bin, clk.Now().Sub(t0), nil
}

// environment describes the machine the numbers come from.
func environment() map[string]any {
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel,
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// session is one invocation's shared state: the built server, the
// world mirror, the simulated population and a temp root that dies
// with the process.
type session struct {
	root   string
	tmp    string
	launch *procLauncher
	// stopSpinner ends the process that keeps the vCPUs awake.
	stopSpinner func()
	sz          sizes
	dep         *lab.Deployment
	riders      []probe.Trip
}

// newSession builds the server and the temp root under
// <root>/.bench_build, the one place the benchmark writes outside its
// own out/ directory, and simulates the riders.
func newSession(ctx context.Context, sz sizes) (*session, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	bin, took, err := buildServer(root, buildDir)
	if err != nil {
		return nil, err
	}
	log.Printf("bench.build_s %.3f", took.Seconds())
	dep, err := newDeployment(sz.world)
	if err != nil {
		return nil, err
	}
	t0 := clk.Now()
	riders, err := cachedRiders(ctx, dep, sz, buildDir)
	if err != nil {
		return nil, err
	}
	log.Printf("sim.corpus_gen_s %.3f (%d trips of %d riders)", clk.Now().Sub(t0).Seconds(), len(riders), sz.riders)
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	stopSpinner, err := startSpinner()
	if err != nil {
		// The numbers are still right, only noisier.
		log.Printf("warning: %v", err)
		stopSpinner = func() {}
	}
	return &session{root: root, tmp: tmp, sz: sz, dep: dep, riders: riders,
		launch: newProcLauncher(bin, sz.world, tmp), stopSpinner: stopSpinner}, nil
}

// close kills every child and removes the temp root.
func (s *session) close() {
	s.stopSpinner()
	s.launch.shutdown()
	if err := os.RemoveAll(s.tmp); err != nil {
		log.Printf("warning: %v", err)
	}
}

// harnessFor returns a harness over the seed's upload order, with its
// own store-dir root.
func (s *session) harnessFor(seed uint64, seconds time.Duration) (*harness, error) {
	tmp, err := os.MkdirTemp(s.tmp, "w-")
	if err != nil {
		return nil, err
	}
	return &harness{launch: s.launch, speed: newSpeedometer(), corpus: newCorpus(s.dep, s.riders, seed),
		sz: s.sz, tmp: tmp, seconds: seconds}, nil
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		spinIdle()
	}
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "upload-order seed: the same seed gives the same upload stream")
	seconds := flag.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 prints the per-layer metrics and writes bench/out/trace.jsonl")
	selfcheck := flag.Bool("selfcheck", false, "run every workload in two sets of runs, print the noise table and write bench/NOISE.md")
	flag.Parse()

	code := 0
	defer func() { os.Exit(code) }()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sess, err := newSession(ctx, defaultSizes())
	if err != nil {
		log.Print(err)
		code = 1
		return
	}
	defer sess.close()
	env, _ := json.Marshal(environment())
	fmt.Printf("{\"env\": %s}\n", env)

	if *selfcheck {
		if err := runSelfcheck(ctx, sess, time.Duration(*seconds*float64(time.Second))); err != nil {
			log.Print(err)
			code = 1
		}
		return
	}
	h, err := sess.harnessFor(*seed, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		log.Print(err)
		code = 1
		return
	}
	res, err := runOnce(ctx, h, *workload, *trace != 0, filepath.Join(sess.root, "bench", "out", "trace.jsonl"))
	if err != nil {
		log.Print(err)
		code = 1
		return
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Print(err)
		code = 1
		return
	}
	fmt.Println(string(line))
	if !res.Correct {
		code = 2
	}
}
