package main

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// On this VM an idle vCPU is expensive to have: the host takes it off
// the core, waking it costs a trip through the hypervisor, and while it
// is away a neighbour's thread runs on the sibling hardware thread and
// slows the vCPU that is still working. A closed loop idles one side of
// every request, so all of that lands in the numbers, and it comes and
// goes with the neighbours. So the bench keeps the machine awake while
// it measures, the way a bare-metal benchmark pins the clock governor:
// one copy of itself, started with spinArg, spins one lowest-priority
// thread per CPU. Six interleaved pairs of 20 s runs read, without and
// with the spinner: read_mixed 2927–3617 and 4092–4378 reads/s (p50
// 0.236–0.299 and 0.181–0.194 ms), ingest_single 794–905 and 856–904
// trips/s (p50 0.92–1.04 and 0.83–0.89 ms).

// spinArg as the only argument turns the process into the spinner.
const spinArg = "spin-idle"

// spinIdle never returns: it spins one thread per CPU at the lowest
// priority until the process is killed or its parent is gone.
func spinIdle() {
	parent := os.Getppid()
	for cpu := 1; cpu < runtime.NumCPU(); cpu++ {
		go spinThread(parent)
	}
	spinThread(parent)
}

// spinThread is one spinner. Nice 19 gives it about a hundredth of a
// CPU it has to share, and any thread that wakes preempts it at once.
func spinThread(parent int) {
	runtime.LockOSThread()
	// On Linux the call moves only the calling thread. A spinner left at
	// normal priority would take half a CPU from the server: better none.
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		log.Fatalf("bench: spinner: setpriority: %v", err)
	}
	for i := 0; ; i++ {
		// A bench that was SIGKILLed cannot stop its spinner; the
		// spinner notices it has been adopted and stops itself.
		if i&(1<<22-1) == 0 && os.Getppid() != parent {
			os.Exit(0)
		}
	}
}

// startSpinner starts the spinner process; stop kills it and waits.
func startSpinner() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, spinArg)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start spinner: %w", err)
	}
	return func() {
		cmd.Process.Kill() //lint:allow errcheckio a spinner that is already gone is the goal
		cmd.Wait()         //lint:allow errcheckio the spinner was killed: its exit status says only that
	}, nil
}
