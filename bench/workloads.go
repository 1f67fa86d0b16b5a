package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/server"
)

// noDeadline lets a set-up upload run until its trips are acknowledged.
const noDeadline = time.Hour

// workloadNames are the four traffic mixes, in the order README
// explains them. Later issues refer to them by these names.
var workloadNames = []string{"ingest_single", "ingest_batch", "read_mixed", "restart"}

// harness is what a workload runs against: a way to boot servers, the
// run's upload stream, the sizes, and a temp root for store dirs.
type harness struct {
	launch  launcher
	speed   *speedometer
	corpus  *corpus
	sz      sizes
	tmp     string
	seconds time.Duration
	dirSeq  int
}

// outcome is one workload run, before it is reduced to metrics.
type outcome struct {
	// setups holds each set-up repetition's duration in seconds and
	// boots the empty-store boot inside each.
	setups, boots []float64
	// ops is the primary operation stream: uploads, reads or restarts.
	ops *opLog
	// items is the work one op acknowledges (trips per request; on
	// restart, the acked trips one cycle restores).
	items int
	// perRound says ops_per_s is the median over rounds; restart has
	// one op per round and uses items over the median cycle instead.
	perRound bool
	// writer is read_mixed's paced upload stream (nil elsewhere).
	writer *opLog
	// versions counts the distinct map versions read_mixed's reader saw.
	versions int
	// cpuS is the server child's CPU seconds over the measured phase
	// (summed over restart's children) and rssMB its peak resident set.
	cpuS, rssMB float64
	// problems lists every correctness failure; empty means correct.
	problems []string
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// freshDir returns a new, empty store directory under the temp root.
func (h *harness) freshDir() string {
	h.dirSeq++
	return filepath.Join(h.tmp, fmt.Sprintf("store-%03d", h.dirSeq))
}

// boot starts a server and waits for its first good /v1/traffic
// answer, returning the instance, that answer and the time it took.
func (h *harness) boot(ctx context.Context, hc *http.Client, o bootOpts) (instance, []byte, time.Duration, error) {
	t0 := clk.Now()
	in, err := h.launch.start(ctx, o)
	if err != nil {
		return nil, nil, 0, err
	}
	bootCtx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()
	body, err := awaitTraffic(bootCtx, hc, in)
	if err != nil {
		in.Kill() //lint:allow errcheckio the boot error is the one reported; the kill only stops the leak
		return nil, nil, 0, err
	}
	return in, body, clock.Since(clk, t0), nil
}

// reference renders /v1/traffic as an in-process backend serves it
// after replaying exactly the first n trips of the stream: the
// byte-identity oracle of every workload.
func (h *harness) reference(ctx context.Context, n int) ([]byte, error) {
	b, err := h.corpus.dep.ReplayTrips(ctx, h.corpus.trips[:n], runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	server.NewHandler(b, server.HandlerConfig{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traffic", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("bench: reference /v1/traffic status %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// checkMap requires served /v1/traffic bytes to equal the reference
// over the first n trips.
func (h *harness) checkMap(ctx context.Context, o *outcome, got []byte, n int) {
	want, err := h.reference(ctx, n)
	if err != nil {
		o.problemf("reference replay: %v", err)
		return
	}
	if !bytes.Equal(got, want) {
		o.problemf("/v1/traffic differs from the in-process replay of the %d acked trips (%d vs %d bytes)",
			n, len(got), len(want))
	}
}

// fetchMap reads the map once, outside any measured phase.
func fetchMap(ctx context.Context, hc *http.Client, in instance) ([]byte, error) {
	status, _, body, err := get(ctx, hc, in.URL()+"/v1/traffic", "", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: final GET /v1/traffic: %w", err)
	}
	return body, nil
}

// repeatSetup runs setup setupReps times, killing every server but
// the last, and returns the last one for the measured phase. setup
// returns the booted instance and how long its empty-store boot took;
// it reports its uploads to the meter, which scales the set-up time to
// reference machine speed round by round.
func (h *harness) repeatSetup(o *outcome, setup func(m *meter) (instance, time.Duration, error)) (instance, error) {
	var last instance
	for rep := 0; rep < h.sz.setupReps; rep++ {
		if last != nil {
			if err := last.Kill(); err != nil {
				return nil, err
			}
		}
		m := newMeter(h.speed, &opLog{})
		in, boot, err := setup(m)
		if err != nil {
			return nil, err
		}
		m.endRound()
		o.setups = append(o.setups, m.scaled.Seconds())
		o.boots = append(o.boots, boot.Seconds())
		last = in
	}
	return last, nil
}

// runWorkload dispatches by name.
func (h *harness) runWorkload(ctx context.Context, name string) (*outcome, error) {
	if need := max(h.sz.warmup, h.sz.preload, h.sz.snapTrips+h.sz.tailTrips, h.sz.ledgerTrips); len(h.corpus.trips) <= need {
		return nil, fmt.Errorf("bench: the population rode %d trips, the workloads need more than %d", len(h.corpus.trips), need)
	}
	switch name {
	case "ingest_single":
		return h.runIngest(ctx, 1)
	case "ingest_batch":
		return h.runIngest(ctx, h.sz.batch)
	case "read_mixed":
		return h.runReadMixed(ctx)
	case "restart":
		return h.runRestart(ctx)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", name, workloadNames)
}

// runIngest is ingest_single (per = 1) and ingest_batch (per = batch):
// one closed-loop client uploads the stream at full speed. Set-up is a
// boot on an empty store plus the warm-up uploads.
func (h *harness) runIngest(ctx context.Context, per int) (*outcome, error) {
	o := &outcome{items: per, perRound: true}
	hc := newConn()
	defer hc.CloseIdleConnections()
	warm := h.sz.warmup
	in, err := h.repeatSetup(o, func(m *meter) (instance, time.Duration, error) {
		in, _, boot, err := h.boot(ctx, hc, bootOpts{storeDir: h.freshDir()})
		if err != nil {
			return nil, 0, err
		}
		if _, err := closedLoopUpload(ctx, hc, in.URL(), h.corpus.trips[:warm], per, noDeadline, m); err != nil {
			in.Kill() //lint:allow errcheckio the warm-up error is the one reported; the kill only stops the leak
			return nil, 0, fmt.Errorf("bench: warm-up: %w", err)
		}
		return in, boot, nil
	})
	if err != nil {
		return nil, err
	}
	o.ops = &opLog{}
	cpu0, _ := in.Usage()
	m := newMeter(h.speed, o.ops)
	acked, err := closedLoopUpload(ctx, hc, in.URL(), h.corpus.trips[warm:], per, h.seconds, m)
	m.endRound()
	if err != nil {
		// A refused upload breaks the acked prefix the reference
		// replays; the phase stopped there and the run is failed.
		o.ops.fail(err)
	}
	cpu1, rss := in.Usage()
	o.cpuS, o.rssMB = cpu1-cpu0, rss
	got, err := fetchMap(ctx, hc, in)
	if err != nil {
		o.problemf("%v", err)
	} else {
		h.checkMap(ctx, o, got, warm+acked)
	}
	return o, in.Kill()
}

// runReadMixed is the writes-beside-reads workload: one closed-loop
// reader of the full map while a second connection uploads single
// trips on a fixed schedule, so the snapshot version keeps moving.
// Set-up is a boot plus the batch preload that gives the map a body.
func (h *harness) runReadMixed(ctx context.Context) (*outcome, error) {
	o := &outcome{items: 1, perRound: true}
	reader, writer := newConn(), newConn()
	defer reader.CloseIdleConnections()
	defer writer.CloseIdleConnections()
	in, err := h.repeatSetup(o, func(m *meter) (instance, time.Duration, error) {
		in, _, boot, err := h.boot(ctx, reader, bootOpts{storeDir: h.freshDir()})
		if err != nil {
			return nil, 0, err
		}
		if _, err := closedLoopUpload(ctx, reader, in.URL(), h.corpus.trips[:h.sz.preload], h.sz.batch, noDeadline, m); err != nil {
			in.Kill() //lint:allow errcheckio the preload error is the one reported; the kill only stops the leak
			return nil, 0, fmt.Errorf("bench: preload: %w", err)
		}
		return in, boot, nil
	})
	if err != nil {
		return nil, err
	}
	type written struct {
		log   *opLog
		acked int
	}
	stop := make(chan struct{})
	done := make(chan written, 1)
	go func() {
		log, acked := pacedUpload(ctx, writer, in.URL(), h.corpus.trips[h.sz.preload:], h.sz.writeHz, &h.speed.quiet, stop)
		done <- written{log, acked}
	}()
	o.ops = &opLog{}
	cpu0, _ := in.Usage()
	m := newMeter(h.speed, o.ops)
	rc := closedLoopRead(ctx, reader, in.URL(), h.seconds, m)
	m.endRound()
	cpu1, rss := in.Usage()
	close(stop)
	w := <-done
	o.cpuS, o.rssMB = cpu1-cpu0, rss
	o.writer, o.versions = w.log, rc.versions
	got, err := fetchMap(ctx, reader, in)
	if err != nil {
		o.problemf("%v", err)
	} else {
		h.checkMap(ctx, o, got, h.sz.preload+w.acked)
	}
	return o, in.Kill()
}

// runRestart times how long the map is dark after a crash, on a store
// made the same way every time. Set-up is two boots: the first ingests
// snapTrips and drains on SIGTERM, so the checkpoint snapshots them;
// the second ingests exactly tailTrips more and is SIGKILLed. Every
// measured cycle then execs the server, waits for the first 200 on
// /v1/traffic, and SIGKILLs it again before it appends anything — so
// each cycle imports the same snapshot and replays the same tail.
func (h *harness) runRestart(ctx context.Context) (*outcome, error) {
	total := h.sz.snapTrips + h.sz.tailTrips
	o := &outcome{items: total}
	hc := newConn()
	defer hc.CloseIdleConnections()
	var dir string
	var preKill []byte
	last, err := h.repeatSetup(o, func(m *meter) (instance, time.Duration, error) {
		dir = h.freshDir()
		in, _, boot, err := h.boot(ctx, hc, bootOpts{storeDir: dir})
		if err != nil {
			return nil, 0, err
		}
		_, err = closedLoopUpload(ctx, hc, in.URL(), h.corpus.trips[:h.sz.snapTrips], h.sz.batch, noDeadline, m)
		if err == nil {
			hc.CloseIdleConnections()
			err = in.Term(ctx)
		} else {
			in.Kill() //lint:allow errcheckio the ingest error is the one reported; the kill only stops the leak
		}
		if err != nil {
			return nil, 0, fmt.Errorf("bench: restart set-up, snapshot boot: %w", err)
		}
		in, _, _, err = h.boot(ctx, hc, bootOpts{storeDir: dir})
		if err != nil {
			return nil, 0, err
		}
		_, err = closedLoopUpload(ctx, hc, in.URL(), h.corpus.trips[h.sz.snapTrips:total], h.sz.batch, noDeadline, m)
		if err == nil {
			preKill, err = fetchMap(ctx, hc, in)
		}
		if err != nil {
			in.Kill() //lint:allow errcheckio the ingest error is the one reported; the kill only stops the leak
			return nil, 0, fmt.Errorf("bench: restart set-up, tail boot: %w", err)
		}
		return in, boot, nil
	})
	if err != nil {
		return nil, err
	}
	if err := last.Kill(); err != nil {
		return nil, err
	}
	hc.CloseIdleConnections()

	o.ops = &opLog{}
	m := newMeter(h.speed, o.ops)
	report := filepath.Join(h.tmp, "recovery.json")
	start := clk.Now()
	for cycle := 0; cycle < h.sz.minCycles || clock.Since(clk, start) < h.seconds; cycle++ {
		if ctx.Err() != nil {
			break
		}
		in, body, took, err := h.boot(ctx, hc, bootOpts{storeDir: dir, report: report})
		if err != nil {
			o.ops.fail(err)
			break
		}
		cpu, rss := in.Usage()
		o.cpuS += cpu
		o.rssMB = math.Max(o.rssMB, rss)
		if err := in.Kill(); err != nil {
			return nil, err
		}
		hc.CloseIdleConnections()
		if err := checkCycle(body, preKill, report, h.sz.tailTrips); err != nil {
			o.ops.fail(fmt.Errorf("cycle %d: %w", cycle, err))
			continue
		}
		m.single(took)
	}
	h.checkMap(ctx, o, preKill, total)
	return o, nil
}

// checkCycle is one restart cycle's correctness: the first answer
// equals the pre-kill map, and the boot imported the snapshot and
// replayed exactly the tail.
func checkCycle(body, preKill []byte, reportPath string, tail int) error {
	if !bytes.Equal(body, preKill) {
		return fmt.Errorf("first /v1/traffic after restart differs from the pre-kill map (%d vs %d bytes)", len(body), len(preKill))
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return err
	}
	var recs []server.StoreRecovery
	if err := json.Unmarshal(data, &recs); err != nil || len(recs) != 1 {
		return fmt.Errorf("recovery report: %d shards, err %v", len(recs), err)
	}
	r := recs[0]
	if r.Err != "" || !r.SnapshotImported || r.Report.Mode != "snapshot+tail" ||
		r.TripsReplayed != tail || r.Report.RecordsReplayed != tail {
		return fmt.Errorf("recovery: mode %q, snapshotImported %t, %d trips / %d records replayed (want %d), err %q",
			r.Report.Mode, r.SnapshotImported, r.TripsReplayed, r.Report.RecordsReplayed, tail, r.Err)
	}
	return nil
}
