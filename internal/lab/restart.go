package lab

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"busprobe/internal/clock"
	"busprobe/internal/probe"
	"busprobe/internal/server"
)

// scenarioRestart is the durability suite: kill -9 a store-backed
// server mid-corpus, reboot it from its log-structured store, finish
// the corpus, and require the served traffic map byte-identical to an
// uninterrupted in-process replay. Two phases share one corpus:
//
//  1. Monolith: SIGKILL mid-corpus, reboot from the store (snapshot +
//     tail), then a graceful drain followed by a third boot that must
//     restart from the snapshot alone (O(tail)≈O(1)).
//  2. Two shard processes + coordinator: both shards SIGKILLed
//     mid-corpus and rebooted from their per-shard stores, including
//     the cross-shard scatter groups persisted in the receiving
//     shard's log.
var scenarioRestart = Scenario{
	Name:        "restart-recovery",
	Description: "kill -9 a store-backed server mid-corpus: reboot recovers snapshot+tail, traffic byte-identical (monolith, shard procs)",
	run: func(ctx context.Context, e *env, r *Result) error {
		r.Topology = "monolith + shard-procs-2 (store-backed)"
		corpus, err := e.cleanCorpus(ctx)
		if err != nil {
			return err
		}
		cut := len(corpus) * 3 / 5
		if cut < 1 || cut >= len(corpus) {
			return fmt.Errorf("lab: corpus of %d trips cannot be cut", len(corpus))
		}

		// One reference serves both phases: the full corpus
		// replayed serially in process, rendered as wire bytes.
		ref, err := e.dep.ReplayTrips(ctx, corpus, 1)
		if err != nil {
			return err
		}
		refBytes, err := trafficBytes(ref)
		if err != nil {
			return err
		}

		work, err := os.MkdirTemp("", "busprobe-restart-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(work) //lint:allow errcheckio a leaked temp dir must not fail the suite; the OS reaps /tmp

		r.Load.Riders, r.Load.Days = e.opts.Riders, e.opts.Days
		rec := NewLatencyRecorder(e.opts.Clock)
		start := e.opts.Clock.Now()
		if err := restartMonolith(ctx, e, r, rec, corpus, cut, refBytes, work); err != nil {
			return err
		}
		if err := restartShardProcs(ctx, e, r, rec, corpus, cut, refBytes, work); err != nil {
			return err
		}
		wall := clock.Since(e.opts.Clock, start).Seconds()
		r.Latency = rec.Summary()
		if wall > 0 {
			r.Throughput = Throughput{
				TripsPerS:    float64(r.Load.TripsDelivered) / wall,
				RequestsPerS: float64(r.Load.TripsOffered) / wall,
				WallS:        wall,
			}
		}
		return nil
	},
}

// storeFlags are the store-tuning flags every phase boots with:
// segments small enough that a harness corpus rolls several, and a
// snapshot cadence scaled to the load so checkpoints actually fire.
func storeFlags(dir, report string, snapshotEvery int) []string {
	flags := []string{
		"-store-dir", dir,
		"-snapshot-every", strconv.Itoa(snapshotEvery),
		"-segment-bytes", strconv.Itoa(1 << 20),
	}
	if report != "" {
		flags = append(flags, "-recovery-report", report)
	}
	return flags
}

// snapshotEveryFor picks a checkpoint cadence that fires a few times
// while n records land on one shard, whatever the corpus size.
func snapshotEveryFor(n int) int {
	every := n / 3
	if every < 1 {
		every = 1
	}
	return every
}

// keepArtifact copies a run artifact (e.g. a boot's recovery report)
// into OutDir so CI uploads it alongside the suite results.
func (e *env) keepArtifact(path string) {
	if e.opts.OutDir == "" {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	dst := filepath.Join(e.opts.OutDir, filepath.Base(path))
	os.WriteFile(dst, data, 0o644) //lint:allow errcheckio an artifact copy failure must not fail the suite; the checks already consumed the report
}

// readRecoveryReport parses the JSON artifact a boot wrote with
// -recovery-report.
func readRecoveryReport(path string) ([]server.StoreRecovery, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []server.StoreRecovery
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("lab: recovery report %s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("lab: recovery report %s names no shards", path)
	}
	return recs, nil
}

// tallyWire folds one wire counter's final snapshot into the suite's
// load section. Call once per counter, after its last drive.
func tallyWire(r *Result, wc *wireCounter) {
	offered, delivered, dup, failed := wc.snapshot()
	r.Load.TripsOffered += offered
	r.Load.TripsDelivered += delivered
	r.Load.TripsDuplicate += dup
	r.Load.TripsFailed += failed
}

// recoverySummary compacts a recovery report for check details.
func recoverySummary(recs []server.StoreRecovery) string {
	parts := make([]string, len(recs))
	for i, rc := range recs {
		if rc.Err != "" {
			parts[i] = fmt.Sprintf("shard%d FAILED: %s", rc.Shard, rc.Err)
			continue
		}
		parts[i] = fmt.Sprintf("shard%d %s: %d replayed, %d skipped, %d scatter, snapshot=%t",
			rc.Shard, rc.Report.Mode, rc.TripsReplayed, rc.TripsSkipped, rc.ScatterReplayed, rc.SnapshotImported)
	}
	return strings.Join(parts, "; ")
}

// checkMapIdentical compares a booted server's raw /v1/traffic bytes
// against the shared full-corpus reference under a named check.
func checkMapIdentical(ctx context.Context, r *Result, url string, refBytes []byte, name string) {
	status, got, err := fetchRaw(ctx, url, "/v1/traffic")
	if err != nil || status != http.StatusOK {
		r.check(name, false, fmt.Sprintf("status %d, err %v", status, err))
		return
	}
	eq := compareTraffic("in-process serial replay of the full corpus", refBytes, got, trafficRows(refBytes))
	r.Equivalence = eq
	r.check(name, eq.ByteIdentical, eq.Detail)
}

// killProc SIGKILLs a booted server and reaps it — the crash every
// restart phase recovers from.
func killProc(ctx context.Context, e *env, p *serverProc) error {
	if err := p.Kill(); err != nil {
		return fmt.Errorf("lab: kill %s: %w", p.Name, err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, e.opts.DrainTimeout)
	defer cancel()
	_, _ = p.Wait(waitCtx)
	return nil
}

// restartMonolith runs phase 1: a store-backed monolith SIGKILLed
// mid-corpus, rebooted, finished, drained, and rebooted once more to
// prove the drain checkpoint makes the next restart O(tail)≈O(1).
func restartMonolith(ctx context.Context, e *env, r *Result, rec *LatencyRecorder, corpus []probe.Trip, cut int, refBytes []byte, work string) error {
	dir := filepath.Join(work, "mono-store")

	every := snapshotEveryFor(cut)
	srv1, err := e.bootServer(ctx, "mono-v1", storeFlags(dir, "", every)...)
	if err != nil {
		return err
	}
	wc := newWireCounter(srv1.Client, rec)
	if err := driveTrips(ctx, wc, corpus[:cut]); err != nil {
		killProc(ctx, e, srv1) //lint:allow errcheckio best-effort reap on the error path; the drive error is the verdict
		return err
	}
	_, _, _, failed := wc.snapshot()
	r.check("monolith: no failures before the kill", failed == 0,
		fmt.Sprintf("failed %d of %d (%s)", failed, cut, wc.failDetail()))
	tallyWire(r, wc)
	if err := killProc(ctx, e, srv1); err != nil {
		return err
	}
	e.logf("monolith killed after %d/%d trips", cut, len(corpus))

	report2 := filepath.Join(work, "restart-recovery-mono-reboot.json")
	srv2, err := e.bootServer(ctx, "mono-v2", storeFlags(dir, report2, every)...)
	if err != nil {
		return err
	}
	defer func() {
		sctx, cancel := e.shutdownCtx()
		defer cancel()
		srv2.Shutdown(sctx)
	}()
	e.keepArtifact(report2)
	recs, err := readRecoveryReport(report2)
	if err != nil {
		r.check("monolith: reboot writes a recovery report", false, err.Error())
		return nil
	}
	rc := recs[0]
	r.check("monolith: reboot recovers from the store",
		rc.Err == "" && rc.Report.Mode != "fresh", recoverySummary(recs))
	r.check("monolith: snapshot restart replays only the tail",
		rc.SnapshotImported && rc.Report.Mode == "snapshot+tail" && rc.TripsReplayed < cut,
		recoverySummary(recs))
	stats, err := srv2.Client.Stats(ctx)
	r.check("monolith: rebooted server holds every pre-kill trip",
		err == nil && stats.TripsReceived == cut,
		fmt.Sprintf("TripsReceived %d, want %d, err %v", stats.TripsReceived, cut, err))

	wc2 := newWireCounter(srv2.Client, rec)
	if err := driveTrips(ctx, wc2, corpus[cut:]); err != nil {
		return err
	}
	_, delivered, dup, failed := wc2.snapshot()
	r.check("monolith: post-reboot trips all land", failed == 0 && dup == 0 && delivered == len(corpus)-cut,
		fmt.Sprintf("delivered %d duplicate %d failed %d (%s)", delivered, dup, failed, wc2.failDetail()))
	tallyWire(r, wc2)
	checkMapIdentical(ctx, r, srv2.URL, refBytes, "monolith: map byte-identical after kill+reboot")
	checkDrain(e, r, srv2)

	// The drain checkpointed: a third boot must import the snapshot and
	// replay nothing.
	report3 := filepath.Join(work, "restart-recovery-mono-clean.json")
	srv3, err := e.bootServer(ctx, "mono-v3", storeFlags(dir, report3, every)...)
	if err != nil {
		return err
	}
	defer func() {
		sctx, cancel := e.shutdownCtx()
		defer cancel()
		srv3.Shutdown(sctx)
	}()
	e.keepArtifact(report3)
	recs, err = readRecoveryReport(report3)
	if err != nil {
		r.check("monolith: post-drain reboot writes a recovery report", false, err.Error())
		return nil
	}
	rc = recs[0]
	r.check("monolith: post-drain reboot restarts from the snapshot alone",
		rc.Err == "" && rc.Report.Mode == "snapshot+tail" && rc.SnapshotImported && rc.TripsReplayed == 0,
		recoverySummary(recs))
	stats, err = srv3.Client.Stats(ctx)
	r.check("monolith: post-drain reboot holds the full corpus",
		err == nil && stats.TripsReceived == len(corpus),
		fmt.Sprintf("TripsReceived %d, want %d, err %v", stats.TripsReceived, len(corpus), err))
	checkMapIdentical(ctx, r, srv3.URL, refBytes, "monolith: map byte-identical after clean restart")
	return nil
}

// restartShardProcs runs phase 2: two shard processes sharing one
// -store-dir base (each keeps its own <base>/shardN/), both SIGKILLed
// mid-corpus and rebooted on the same addresses — the topology is
// baked into every command line, so the addresses must survive the
// crash. Cross-shard scatter groups ride the receiving shard's log.
func restartShardProcs(ctx context.Context, e *env, r *Result, rec *LatencyRecorder, corpus []probe.Trip, cut int, refBytes []byte, work string) error {
	const shards = 2
	base := filepath.Join(work, "shard-store")

	ports := make([]int, shards)
	addrs := make([]string, shards)
	urls := make([]string, shards)
	for i := range ports {
		p, err := FreePort()
		if err != nil {
			return err
		}
		ports[i] = p
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", p)
		urls[i] = "http://" + addrs[i]
	}
	topo := strings.Join(urls, ",")

	var procs []*serverProc
	defer func() {
		sctx, cancel := e.shutdownCtx()
		defer cancel()
		for _, p := range procs {
			p.Shutdown(sctx)
		}
	}()
	every := snapshotEveryFor(cut / shards)
	bootShard := func(i int, report string) (*serverProc, error) {
		args := append(e.bootArgs(addrs[i]),
			"-shard-id", strconv.Itoa(i), "-shard-addrs", topo)
		args = append(args, storeFlags(base, report, every)...)
		p, err := StartProc(fmt.Sprintf("shard-%d", i), e.opts.ServerBin, args...)
		if err != nil {
			return nil, err
		}
		sp := &serverProc{Proc: p, URL: urls[i]}
		bootCtx, cancel := context.WithTimeout(ctx, e.opts.BootTimeout)
		err = sp.AwaitHealthy(bootCtx, sp.URL)
		cancel()
		if err != nil {
			_ = sp.Kill()
			return nil, err
		}
		e.logf("%s healthy at %s", sp.Name, sp.URL)
		return sp, nil
	}
	shardProcs := make([]*serverProc, shards)
	for i := 0; i < shards; i++ {
		sp, err := bootShard(i, "")
		if err != nil {
			return err
		}
		shardProcs[i] = sp
		procs = append(procs, sp)
	}
	coord, err := e.bootServer(ctx, "coordinator", "-shard-addrs", topo)
	if err != nil {
		return err
	}
	procs = append(procs, coord)

	wc := newWireCounter(coord.Client, rec)
	if err := driveTrips(ctx, wc, corpus[:cut]); err != nil {
		return err
	}
	_, _, _, failed := wc.snapshot()
	r.check("shard-procs: no failures before the kills", failed == 0,
		fmt.Sprintf("failed %d of %d (%s)", failed, cut, wc.failDetail()))
	tallyWire(r, wc)

	// A shard that was routed no trips and received no scatters holds
	// an empty store and legitimately reboots "fresh". Record which
	// shards actually ingested records so the reboot checks demand a
	// replay only from those (defaulting to demanding one if the
	// pre-kill stats are unreadable).
	hadRecords := make([]bool, shards)
	for i := range hadRecords {
		hadRecords[i] = true
	}
	if preRows, err := coord.Client.Shards(ctx); err == nil {
		for _, st := range preRows {
			if st.Shard >= 0 && st.Shard < shards {
				hadRecords[st.Shard] = st.Stats.TripsReceived > 0 ||
					st.Stats.Observations > 0 || st.Stats.ObsDiscarded > 0
			}
		}
	}

	// The fault: both shard processes die without warning.
	for i := 0; i < shards; i++ {
		if err := killProc(ctx, e, shardProcs[i]); err != nil {
			return err
		}
	}
	e.logf("both shards killed after %d/%d trips", cut, len(corpus))

	// Reboot on the same addresses. Shard 1 first, so shard 0's tail
	// replay can re-scatter to a live peer; shard 1's own re-scatters
	// toward the still-down shard 0 are tolerated — the groups it sent
	// were already durable in shard 0's log before the kill.
	reports := make([]string, shards)
	for _, i := range []int{1, 0} {
		reports[i] = filepath.Join(work, fmt.Sprintf("restart-recovery-shard-%d-reboot.json", i))
		sp, err := bootShard(i, reports[i])
		if err != nil {
			return err
		}
		shardProcs[i] = sp
		procs = append(procs, sp)
	}
	for i := 0; i < shards; i++ {
		e.keepArtifact(reports[i])
		recs, err := readRecoveryReport(reports[i])
		if err != nil {
			r.check(fmt.Sprintf("shard-procs: shard %d writes a recovery report", i), false, err.Error())
			continue
		}
		rc := recs[0]
		r.check(fmt.Sprintf("shard-procs: shard %d recovers from its store", i),
			rc.Err == "" && (rc.Report.Mode != "fresh" || !hadRecords[i]),
			recoverySummary(recs))
	}
	rows, err := coord.Client.Shards(ctx)
	received := 0
	healthy := 0
	for _, st := range rows {
		if st.Healthy {
			healthy++
		}
		received += st.Stats.TripsReceived
	}
	r.check("shard-procs: coordinator sees both rebooted shards healthy",
		err == nil && len(rows) == shards && healthy == shards,
		fmt.Sprintf("rows %d, healthy %d, err %v", len(rows), healthy, err))
	r.check("shard-procs: rebooted shards hold every routed trip",
		err == nil && received == cut,
		fmt.Sprintf("shard TripsReceived sum %d, want %d", received, cut))

	wc2 := newWireCounter(coord.Client, rec)
	if err := driveTrips(ctx, wc2, corpus[cut:]); err != nil {
		return err
	}
	_, delivered, dup, failed := wc2.snapshot()
	r.check("shard-procs: post-reboot trips all land", failed == 0 && dup == 0 && delivered == len(corpus)-cut,
		fmt.Sprintf("delivered %d duplicate %d failed %d (%s)", delivered, dup, failed, wc2.failDetail()))
	tallyWire(r, wc2)
	checkMapIdentical(ctx, r, coord.URL, refBytes, "shard-procs: merged map byte-identical after kill+reboot")
	return nil
}
