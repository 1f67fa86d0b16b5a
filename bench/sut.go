package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/lab"
	"busprobe/internal/server"
	"busprobe/internal/store"
)

// bootOpts are the per-boot choices a workload makes. Every boot is a
// monolith over -store-dir with automatic checkpoints off, so a
// snapshot happens only where a workload places one (restart's drain).
type bootOpts struct {
	// storeDir is the -store-dir base; state lands in <dir>/shard0.
	storeDir string
	// report, when set, receives the boot's -recovery-report JSON.
	report string
}

// instance is one booted server, real process or in-process stand-in.
type instance interface {
	// URL is the base URL the server answers on.
	URL() string
	// Term stops the server gracefully: drain, checkpoint, exit 0.
	Term(ctx context.Context) error
	// Kill stops the server with no warning (SIGKILL).
	Kill() error
	// Usage reads the server's consumed CPU seconds and peak resident
	// set in MiB. Call before Term or Kill.
	Usage() (cpuS, rssPeakMB float64)
	// Exited is closed once the server has stopped on its own account
	// (a crashed child); a readiness poll gives up on it.
	Exited() <-chan struct{}
}

// launcher starts servers. start returns once the process exists (or
// the in-process server listens); the caller polls for readiness,
// which is what lets a restart cycle time exec → first good answer.
type launcher interface {
	start(ctx context.Context, o bootOpts) (instance, error)
}

// procLauncher boots the real busprobe-server binary. The bench owns
// the exec.Cmd (lab.StartProc hides the PID, which /proc needs).
type procLauncher struct {
	bin    string
	world  string
	logDir string

	mu   sync.Mutex
	live map[*procInstance]bool //lint:guardedby mu
	seq  int                    //lint:guardedby mu
}

// newProcLauncher boots bin with the given world preset, sending each
// child's stdout and stderr to a numbered file under logDir.
func newProcLauncher(bin, world, logDir string) *procLauncher {
	return &procLauncher{bin: bin, world: world, logDir: logDir, live: make(map[*procInstance]bool)}
}

// procInstance is one child process.
type procInstance struct {
	owner *procLauncher
	cmd   *exec.Cmd
	url   string
	logf  *os.File
	done  chan struct{} // closed once cmd.Wait returned
	werr  error
}

func (l *procLauncher) start(_ context.Context, o bootOpts) (instance, error) {
	port, err := lab.FreePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{
		"-addr", addr,
		"-seed", strconv.Itoa(worldSeed),
		"-world", l.world,
		"-survey-runs", strconv.Itoa(surveyRuns),
		"-store-dir", o.storeDir,
		"-snapshot-every", "0",
	}
	if o.report != "" {
		args = append(args, "-recovery-report", o.report)
	}
	l.mu.Lock()
	l.seq++
	seq := l.seq
	l.mu.Unlock()
	logf, err := os.Create(filepath.Join(l.logDir, fmt.Sprintf("server-%03d.log", seq)))
	if err != nil {
		return nil, err
	}
	p := &procInstance{owner: l, url: "http://" + addr, logf: logf, done: make(chan struct{})}
	p.cmd = exec.Command(l.bin, args...)
	p.cmd.Stdout = logf
	p.cmd.Stderr = logf
	if err := p.cmd.Start(); err != nil {
		logf.Close() //lint:allow errcheckio the start error is the one reported; nothing was written to the log
		return nil, fmt.Errorf("bench: start %s: %w", l.bin, err)
	}
	l.mu.Lock()
	l.live[p] = true
	l.mu.Unlock()
	go func() {
		p.werr = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// shutdown kills every child still running; safe to call twice.
func (l *procLauncher) shutdown() {
	l.mu.Lock()
	procs := make([]*procInstance, 0, len(l.live))
	for p := range l.live {
		procs = append(procs, p) //lint:allow maporder the order children are killed in changes nothing
	}
	l.mu.Unlock()
	for _, p := range procs {
		p.Kill() //lint:allow errcheckio cleanup path: a process that is already gone is the goal
	}
}

func (p *procInstance) URL() string { return p.url }

func (p *procInstance) Exited() <-chan struct{} { return p.done }

// reap waits for the child to exit and releases its bookkeeping.
func (p *procInstance) reap() {
	<-p.done
	p.owner.mu.Lock()
	delete(p.owner.live, p)
	p.owner.mu.Unlock()
	p.logf.Close() //lint:allow errcheckio a child's log is diagnostic only; a failed close loses nothing the run depends on
}

func (p *procInstance) Term(ctx context.Context) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.reap()
		return fmt.Errorf("bench: SIGTERM: %w", err)
	}
	select {
	case <-p.done:
	case <-ctx.Done():
		p.cmd.Process.Kill() //lint:allow errcheckio the drain already failed; the kill only stops the leak
		p.reap()
		return fmt.Errorf("bench: server did not drain: %w", ctx.Err())
	}
	p.reap()
	if p.werr != nil {
		return fmt.Errorf("bench: server exited uncleanly on SIGTERM: %w", p.werr)
	}
	return nil
}

func (p *procInstance) Kill() error {
	err := p.cmd.Process.Kill()
	p.reap()
	if err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	return nil
}

// Usage reads /proc/<pid>/stat (utime+stime, fields 14 and 15, in
// clock ticks) and VmHWM from /proc/<pid>/status.
func (p *procInstance) Usage() (cpuS, rssPeakMB float64) {
	pid := strconv.Itoa(p.cmd.Process.Pid)
	if data, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// The command name (field 2) may hold spaces; fields resume
		// after its closing parenthesis.
		if i := strings.LastIndexByte(string(data), ')'); i >= 0 {
			f := strings.Fields(string(data[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				const ticksPerS = 100 // USER_HZ on every Linux the repo targets
				cpuS = (ut + st) / ticksPerS
			}
		}
	}
	if data, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				rssPeakMB = kb / 1024
			}
		}
	}
	return cpuS, rssPeakMB
}

// localLauncher serves the same handler in this process: the smoke
// test's stand-in, which needs no built binary. Kill skips the drain
// checkpoint exactly as SIGKILL does (appends flush per record, so the
// log on disk is what a killed process would leave). Nothing outlives
// the test process, so nothing is tracked for a shutdown to reap.
type localLauncher struct {
	dep *lab.Deployment
}

type localInstance struct {
	srv *httptest.Server
	b   *server.Backend
	log *server.StoreLog
}

func (l localLauncher) start(ctx context.Context, o bootOpts) (instance, error) {
	b, err := l.dep.NewBackend()
	if err != nil {
		return nil, err
	}
	rec, err := server.RecoverBackendStore(ctx, store.Options{
		Dir:   server.ShardStoreDir(o.storeDir, 0),
		Clock: clock.Wall{},
	}, "", b)
	if err != nil {
		return nil, err
	}
	if o.report != "" {
		blob, err := json.Marshal([]*server.StoreRecovery{rec})
		if err == nil {
			err = os.WriteFile(o.report, blob, 0o644)
		}
		if err != nil {
			return nil, err
		}
	}
	return &localInstance{b: b, log: rec.Log(),
		srv: httptest.NewServer(server.NewHandler(b, server.HandlerConfig{}))}, nil
}

func (in *localInstance) URL() string { return in.srv.URL }

func (in *localInstance) Exited() <-chan struct{} { return nil }

func (in *localInstance) stop() {
	in.srv.CloseClientConnections()
	in.srv.Close() //lint:allow errcheckio httptest.Server.Close returns nothing
}

func (in *localInstance) Term(context.Context) error {
	in.stop()
	if err := in.b.Checkpoint(); err != nil {
		return err
	}
	return in.log.Close()
}

func (in *localInstance) Kill() error {
	in.stop()
	return in.log.Close()
}

func (in *localInstance) Usage() (float64, float64) { return 0, 0 }

// awaitTraffic polls GET /v1/traffic until the server answers 200,
// returning the body. The poll is tight (2 ms) because a restart
// cycle's clock stops at the first good answer.
func awaitTraffic(ctx context.Context, hc *http.Client, in instance) ([]byte, error) {
	var lastErr error
	for {
		status, _, body, err := get(ctx, hc, in.URL()+"/v1/traffic", "", nil)
		if err == nil && status == http.StatusOK {
			return body, nil
		}
		if err == nil {
			err = fmt.Errorf("status %d", status)
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("bench: %s not serving before deadline: %w (last: %v)", in.URL(), ctx.Err(), lastErr)
		case <-in.Exited():
			return nil, fmt.Errorf("bench: server at %s exited before serving (last: %v)", in.URL(), lastErr)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
