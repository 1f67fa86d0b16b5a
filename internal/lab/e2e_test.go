package lab

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// serverBinPath is the busprobe-server binary the e2e tests boot,
// compiled once in TestMain.
var serverBinPath string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "lab-e2e-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		serverBinPath = filepath.Join(dir, "busprobe-server")
		cmd := exec.Command("go", "build", "-o", serverBinPath, "busprobe/cmd/busprobe-server")
		if out, err := cmd.CombinedOutput(); err != nil {
			// Leave the binary unset: the e2e tests skip, the unit
			// tests still run (e.g. under restricted build sandboxes).
			println("lab e2e: go build busprobe-server failed, skipping e2e:", err.Error(), string(out))
			serverBinPath = ""
		}
		return m.Run()
	}())
}

// e2eOptions shrinks the load so each e2e scenario finishes in about a
// second of wall clock on top of the process boots.
func e2eOptions(t *testing.T) Options {
	t.Helper()
	if testing.Short() {
		t.Skip("e2e harness run skipped in -short")
	}
	if serverBinPath == "" {
		t.Skip("busprobe-server binary unavailable")
	}
	return Options{
		ServerBin: serverBinPath,
		Seed:      1,
		Scale:     "small",
		Riders:    10,
		Days:      1,
		OutDir:    t.TempDir(),
	}
}

// runOne executes a single scenario end to end against the real binary
// and returns its (already schema-validated) result.
func runOne(t *testing.T, opts Options, name string) *Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	results, err := Run(ctx, opts, []string{name})
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	if len(results) != 1 {
		t.Fatalf("Run(%s): %d results", name, len(results))
	}
	r := results[0]
	// The run also wrote <suite>.json; decoding it proves the artifact
	// on disk round-trips through the strict decoder.
	data, err := os.ReadFile(filepath.Join(opts.OutDir, name+".json"))
	if err != nil {
		t.Fatalf("result artifact: %v", err)
	}
	onDisk, err := decodeResult(data)
	if err != nil {
		t.Fatalf("result artifact invalid: %v", err)
	}
	if onDisk.Suite != name {
		t.Fatalf("artifact suite %q, want %q", onDisk.Suite, name)
	}
	return r
}

// findCheck locates a named check in a result.
func findCheck(t *testing.T, r *Result, name string) Check {
	t.Helper()
	for _, c := range r.Checks {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("%s: no check named %q (have %v)", r.Suite, name, r.Checks)
	return Check{}
}

// TestE2ECleanScenario boots the real binary and requires the full
// clean contract, byte-equivalence included.
func TestE2ECleanScenario(t *testing.T) {
	r := runOne(t, e2eOptions(t), "clean")
	if !r.Pass {
		t.Fatalf("clean suite failed: %v", r.Reasons)
	}
	if r.Equivalence == nil || !r.Equivalence.ByteIdentical {
		t.Fatalf("equivalence = %+v", r.Equivalence)
	}
	if r.Latency.Count == 0 || r.Throughput.TripsPerS <= 0 {
		t.Fatalf("latency/throughput not measured: %+v %+v", r.Latency, r.Throughput)
	}
}

// TestE2EShardProcsDegradedReads is the regression test for the PR-6
// multi-process contract: with one shard process SIGKILLed mid-drive,
// the coordinator must report it unhealthy on /v1/shards, keep
// answering merged reads with 200, and serve a final map byte-identical
// to the surviving shard's own reference.
func TestE2EShardProcsDegradedReads(t *testing.T) {
	r := runOne(t, e2eOptions(t), "shard-procs")
	if !r.Pass {
		t.Fatalf("shard-procs suite failed: %v", r.Reasons)
	}
	for _, name := range []string{
		"dead shard reported unhealthy",
		"merged reads answer 200 degraded",
		"degraded map equals surviving shard's reference",
	} {
		if c := findCheck(t, r, name); !c.Pass {
			t.Errorf("check %q failed: %s", name, c.Detail)
		}
	}
	if r.Equivalence == nil || !r.Equivalence.ByteIdentical {
		t.Fatalf("degraded equivalence = %+v", r.Equivalence)
	}
}

// TestE2EReadStormScenario is the regression test for the versioned-
// snapshot read path on a real process: concurrent pollers and watchers
// during chaos ingest must see monotone versions, and a watcher's
// delta-reconstructed map must be byte-identical to a fresh GET.
func TestE2EReadStormScenario(t *testing.T) {
	r := runOne(t, e2eOptions(t), "read-storm")
	if !r.Pass {
		t.Fatalf("read-storm suite failed: %v", r.Reasons)
	}
	for _, name := range []string{
		"readers saw no contract violation",
		"readers actually ran under ingest",
		"watcher 0 delta reconstruction byte-identical",
		"watcher 1 delta reconstruction byte-identical",
		"quiescent conditional GET answers 304",
	} {
		if c := findCheck(t, r, name); !c.Pass {
			t.Errorf("check %q failed: %s", name, c.Detail)
		}
	}
	if r.Reads == nil || r.Reads.PolledReads == 0 || r.Reads.WatchPolls == 0 {
		t.Fatalf("read load not recorded: %+v", r.Reads)
	}
	if r.Equivalence == nil || !r.Equivalence.ByteIdentical {
		t.Fatalf("reconstruction equivalence = %+v", r.Equivalence)
	}
}

// TestE2ERestartRecovery is the regression test for the durable-store
// contract on real processes: a store-backed monolith and a 2-shard
// topology each SIGKILLed mid-corpus must reboot from their stores and
// serve a map byte-identical to an uninterrupted replay.
func TestE2ERestartRecovery(t *testing.T) {
	r := runOne(t, e2eOptions(t), "restart-recovery")
	if !r.Pass {
		t.Fatalf("restart-recovery suite failed: %v", r.Reasons)
	}
	for _, name := range []string{
		"monolith: snapshot restart replays only the tail",
		"monolith: map byte-identical after kill+reboot",
		"monolith: post-drain reboot restarts from the snapshot alone",
		"shard-procs: merged map byte-identical after kill+reboot",
	} {
		if c := findCheck(t, r, name); !c.Pass {
			t.Errorf("check %q failed: %s", name, c.Detail)
		}
	}
	if r.Equivalence == nil || !r.Equivalence.ByteIdentical {
		t.Fatalf("equivalence = %+v", r.Equivalence)
	}
}

// TestRunRejectsUnknownScenario keeps the CLI surface honest.
func TestRunRejectsUnknownScenario(t *testing.T) {
	if serverBinPath == "" {
		t.Skip("busprobe-server binary unavailable")
	}
	_, err := Run(context.Background(), Options{ServerBin: serverBinPath}, []string{"no-such-suite"})
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
