// Command busprobe-lab is the conformance + load harness: it boots the
// real busprobe-server binary in each process topology, drives it over
// HTTP with named scenarios, and emits one standard JSON result per
// suite. An optional committed baseline (CI uses
// internal/lab/ci-envelope.json) turns the run into an
// order-of-magnitude perf tripwire.
//
// Usage:
//
//	busprobe-lab list
//	busprobe-lab run [flags] [scenario ...]
//
// With no scenario names, run executes every registered scenario. Run
// flags:
//
//	-server-bin PATH   busprobe-server binary (default: go build it)
//	-out DIR           write <suite>.json per scenario (default none)
//	-seed N            master world seed (default 1)
//	-scale NAME        world preset: small (default) or paper
//	-riders N          campaign riders (default 22)
//	-days N            campaign days (default 2)
//	-surge-riders N    surge scenario population (default 100000)
//	-mem-bound-mb N    surge driver heap-growth bound (default 256)
//	-baseline PATH     gate results against this baseline file
//	-timeout SECONDS   whole-run budget (default 1800)
//
// Exit status: 0 all suites pass and the gate holds; 1 usage or
// infrastructure error; 2 at least one suite failed; 3 suites passed
// but the perf gate tripped.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"busprobe/internal/lab"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	if len(argv) == 0 {
		usage()
		return 1
	}
	switch argv[0] {
	case "list":
		for _, s := range lab.Scenarios() {
			fmt.Printf("%-16s %s\n", s.Name, s.Description)
		}
		return 0
	case "run":
		return runScenarios(argv[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		warnf("busprobe-lab: unknown command %q\n", argv[0])
		usage()
		return 1
	}
}

// warnf prints to stderr.
func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format, args...) //lint:allow errcheckio a CLI cannot report a failed stderr write anywhere
}

func usage() {
	warnf("usage: busprobe-lab list | busprobe-lab run [flags] [scenario ...]\n")
}

func runScenarios(argv []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	serverBin := fs.String("server-bin", "", "busprobe-server binary (empty = go build it)")
	outDir := fs.String("out", "", "directory for per-suite result JSON")
	seed := fs.Uint64("seed", 1, "master world seed")
	scale := fs.String("scale", "small", "world preset: small or paper")
	riders := fs.Int("riders", 0, "campaign riders (0 = default)")
	days := fs.Int("days", 0, "campaign days (0 = default)")
	surgeRiders := fs.Int("surge-riders", 0, "surge population (0 = default)")
	memBoundMB := fs.Int("mem-bound-mb", 0, "surge heap-growth bound in MiB (0 = default)")
	baselinePath := fs.String("baseline", "", "perf baseline file to gate against")
	timeoutS := fs.Float64("timeout", 1800, "whole-run budget in seconds")
	if err := fs.Parse(argv); err != nil {
		return 1
	}
	names := fs.Args()
	if len(names) == 0 {
		for _, s := range lab.Scenarios() {
			names = append(names, s.Name)
		}
	}
	// Load the baseline before anything runs: a mistyped path must cost
	// nothing, not a full run.
	var base *lab.Baseline
	if *baselinePath != "" {
		var err error
		if base, err = lab.LoadBaseline(*baselinePath); err != nil {
			warnf("busprobe-lab: %v\n", err)
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, time.Duration(*timeoutS*float64(time.Second)))
	defer cancel()

	bin := *serverBin
	if bin == "" {
		built, cleanup, err := buildServer(ctx)
		if err != nil {
			warnf("busprobe-lab: %v\n", err)
			return 1
		}
		defer cleanup()
		bin = built
	}

	opts := lab.Options{
		ServerBin:        bin,
		OutDir:           *outDir,
		Seed:             *seed,
		Scale:            *scale,
		Riders:           *riders,
		Days:             *days,
		SurgeRiders:      *surgeRiders,
		MemoryBoundBytes: uint64(*memBoundMB) << 20,
		Log:              os.Stderr,
	}
	results, err := lab.Run(ctx, opts, names)
	if err != nil {
		warnf("busprobe-lab: %v\n", err)
		return 1
	}

	failed := 0
	for _, r := range results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%s %-16s %6.1fs  p95=%.4fs p99=%.4fs trips/s=%.1f\n",
			verdict, r.Suite, r.DurationS, r.Latency.P95S, r.Latency.P99S, r.Throughput.TripsPerS)
		for _, reason := range r.Reasons {
			fmt.Printf("     - %s\n", reason)
		}
	}
	if failed > 0 {
		fmt.Printf("%d of %d suites failed\n", failed, len(results))
		return 2
	}

	if base != nil {
		if violations := base.Gate(results); len(violations) > 0 {
			fmt.Println("perf gate FAILED:")
			for _, v := range violations {
				fmt.Printf("     - %s\n", v)
			}
			return 3
		}
		fmt.Printf("perf gate ok (%s)\n", *baselinePath)
	}
	return 0
}

// buildServer compiles busprobe-server into a temp dir so the harness
// always runs against the working tree's server.
func buildServer(ctx context.Context) (string, func(), error) {
	dir, err := os.MkdirTemp("", "busprobe-lab-")
	if err != nil {
		return "", nil, err
	}
	cleanup := func() { _ = os.RemoveAll(dir) }
	bin := filepath.Join(dir, "busprobe-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "busprobe/cmd/busprobe-server")
	out, err := cmd.CombinedOutput()
	if err != nil {
		cleanup()
		return "", nil, fmt.Errorf("build busprobe-server: %v\n%s", err, out)
	}
	warnf("busprobe-lab: built %s\n", bin)
	return bin, cleanup, nil
}
