// Package phone implements the rider-side agent of the system (§III-B):
// a trip recorder that wakes on IC-card reader beeps, gates them with the
// accelerometer mobility filter, attaches a cellular scan to every beep,
// concludes a trip after a beep-free idle timeout, and uploads the trip
// to the backend. It also carries the Table III power model of the data
// collection app.
package phone

import (
	"context"
	"fmt"

	"busprobe/internal/accel"
	"busprobe/internal/cellular"
	"busprobe/internal/probe"
)

// Scanner supplies the cellular measurement at the phone's current
// position; the simulator implements it over the radio deployment and
// the bus trajectory.
type Scanner interface {
	ScanAt(timeS float64) []cellular.Reading
}

// Uploader receives concluded trips; the backend server (or an HTTP
// client) implements it. The context bounds the delivery: it carries
// the request's trace ID and cancels any blocking work (retry backoff,
// network round trips) when the caller gives up.
type Uploader interface {
	Upload(ctx context.Context, trip probe.Trip) error
}

// BatchUploader ingests many trips in one call. Backends that can
// parallelize batch ingest (and HTTP clients wrapping their batch
// endpoint) implement it alongside Uploader; errs[i] reports trip i's
// outcome.
type BatchUploader interface {
	UploadBatch(ctx context.Context, trips []probe.Trip) []error
}

// DefaultIdleTimeoutS is the trip-conclusion timeout: the phone ends the
// current trip when no beep is detected for 10 minutes (§III-B).
const DefaultIdleTimeoutS = 600.0

// AgentConfig parameterizes an agent.
type AgentConfig struct {
	// DeviceID is the anonymous per-install token.
	DeviceID string
	// IdleTimeoutS concludes a trip after this long without beeps.
	IdleTimeoutS float64
}

// DefaultAgentConfig returns the deployed configuration.
func DefaultAgentConfig(deviceID string) AgentConfig {
	return AgentConfig{DeviceID: deviceID, IdleTimeoutS: DefaultIdleTimeoutS}
}

// Agent is one phone's data-collection app. Not safe for concurrent use;
// the simulator drives each agent from a single goroutine.
type Agent struct {
	cfg      AgentConfig
	scanner  Scanner
	uploader Uploader

	mode      accel.Mode
	current   *probe.Trip
	lastBeepS float64
	tripSeq   int
}

// NewAgent returns an agent writing trips to the uploader.
func NewAgent(cfg AgentConfig, scanner Scanner, uploader Uploader) (*Agent, error) {
	if cfg.DeviceID == "" {
		return nil, fmt.Errorf("phone: empty device ID")
	}
	if cfg.IdleTimeoutS <= 0 {
		return nil, fmt.Errorf("phone: non-positive idle timeout %v", cfg.IdleTimeoutS)
	}
	if scanner == nil || uploader == nil {
		return nil, fmt.Errorf("phone: nil scanner or uploader")
	}
	return &Agent{cfg: cfg, scanner: scanner, uploader: uploader, mode: accel.ModeStill}, nil
}

// SetMobilityMode feeds the accelerometer classifier's verdict to the
// agent. Beeps heard while the phone is not moving like a bus (e.g. at a
// rapid-train station using the same card readers) are filtered out and
// neither start nor extend trips.
func (a *Agent) SetMobilityMode(m accel.Mode) { a.mode = m }

// OnBeep handles one detected reader beep at the given time: it starts a
// trip if none is open and appends a cellular sample.
func (a *Agent) OnBeep(timeS float64) {
	if a.mode == accel.ModeTrain {
		return // train-station reader; mobility filter rejects it
	}
	readings := a.scanner.ScanAt(timeS)
	if len(readings) == 0 {
		return // no cellular coverage; nothing to record
	}
	if a.current == nil {
		a.tripSeq++
		a.current = &probe.Trip{
			ID:       fmt.Sprintf("%s-%d", a.cfg.DeviceID, a.tripSeq),
			DeviceID: a.cfg.DeviceID,
		}
	}
	// The device stamps samples with its own monotonic clock: a beep
	// presented "earlier" than the last recorded one (overlapping
	// reader dwell windows, replayed event streams) is heard now, not
	// in the past. Without the clamp such trips fail the backend's
	// sample-order validation.
	if timeS < a.lastBeepS {
		timeS = a.lastBeepS
	}
	a.current.Samples = append(a.current.Samples, probe.Sample{
		TimeS:    timeS,
		Readings: readings,
	})
	a.lastBeepS = timeS
}

// Tick advances the agent's clock, concluding and uploading the open
// trip once the idle timeout elapses. The context bounds the upload.
func (a *Agent) Tick(ctx context.Context, nowS float64) {
	if a.current != nil && nowS-a.lastBeepS >= a.cfg.IdleTimeoutS {
		a.conclude(ctx)
	}
}

// Flush force-concludes any open trip (end of campaign / app shutdown).
func (a *Agent) Flush(ctx context.Context) {
	if a.current != nil {
		a.conclude(ctx)
	}
}

// conclude uploads the open trip and resets the recorder. On an upload
// error the agent drops the trip, as the real app does when its buffer
// cannot reach the server; the uploader chain below it (retry spool,
// campaign counters) is where failures are handled and counted.
func (a *Agent) conclude(ctx context.Context) {
	trip := a.current
	a.current = nil
	if len(trip.Samples) == 0 {
		return
	}
	_ = a.uploader.Upload(ctx, *trip)
}
