package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"busprobe/internal/core/traffic"
	"busprobe/internal/probe"
	"busprobe/internal/server/stage"
	"busprobe/internal/store"
)

// TripLog is the backend's durable trip sink: admit() appends every
// accepted upload before processing it; an error wrapping
// ErrInvalidTrip refuses the trip for good, any other is transient.
// *StoreLog is the one serving implementation; the interface remains so
// a test can substitute a failing log and the benchmark ledger a timing
// one.
type TripLog interface {
	Append(ctx context.Context, trip probe.Trip) error
}

var _ TripLog = (*StoreLog)(nil)

// PersistentStateSchema versions the snapshot state blob. A snapshot
// carrying another schema is skipped down the recovery ladder.
const PersistentStateSchema = "busprobe-state/1"

// PersistentState is the backend's complete durable state: everything
// a snapshot must capture so that "import state + replay tail" equals
// "replay everything". All slices are sorted, so exporting twice from
// a quiesced backend is byte-identical.
type PersistentState struct {
	// Schema is PersistentStateSchema.
	Schema string `json:"schema"`
	// Seen is the dedup set: every accepted trip ID, ascending.
	Seen []string `json:"seen"`
	// Scatter is the cross-shard fold idempotency record, ascending by
	// key: replayed or retried scatter groups with a recorded key
	// return the recorded outcome instead of folding twice.
	Scatter []ScatterOutcome `json:"scatter,omitempty"`
	// Pending is the cross-shard groups this shard computed whose
	// delivery to their owner had not succeeded by export time,
	// ascending by key. A snapshot must carry them: once it covers the
	// originating trip's record, compaction may delete the only other
	// copy, and without this field a transient peer outage would turn
	// into a permanently missing fold on the owner.
	Pending []PendingScatter `json:"pending,omitempty"`
	// Stats are the work counters at export.
	Stats Stats `json:"stats"`
	// Estimator is the traffic estimator's window/belief state.
	Estimator *traffic.State `json:"estimator"`
}

// ScatterOutcome is one recorded cross-shard fold.
type ScatterOutcome struct {
	Key string               `json:"key"`
	Out stage.EstimateOutput `json:"out"`
}

// PendingScatter is one cross-shard observation group still awaiting
// delivery to its owner shard.
type PendingScatter struct {
	Key   string                `json:"key"`
	Owner int                   `json:"owner"`
	Obs   []traffic.Observation `json:"obs"`
}

// ExportState captures the backend's durable state. Safe to call on a
// live backend, but only a checkpoint-quiesced export (Checkpoint) is
// guaranteed consistent with a segment boundary — a concurrent trip
// could otherwise land its log record and its fold on opposite sides
// of the export.
func (b *Backend) ExportState() *PersistentState {
	b.scatterMu.Lock()
	defer b.scatterMu.Unlock()
	return b.exportStateScatterLocked()
}

// exportStateScatterLocked builds the state document. Callers hold
// scatterMu; the other locks are taken (and released) per field.
func (b *Backend) exportStateScatterLocked() *PersistentState {
	st := &PersistentState{Schema: PersistentStateSchema, Estimator: b.est.ExportState()}
	b.dedupMu.Lock()
	st.Seen = make([]string, 0, len(b.seen))
	for id := range b.seen {
		st.Seen = append(st.Seen, id)
	}
	b.dedupMu.Unlock()
	sort.Strings(st.Seen)
	b.statsMu.Lock()
	st.Stats = b.stats
	b.statsMu.Unlock()
	if len(b.scatterSeen) > 0 {
		st.Scatter = make([]ScatterOutcome, 0, len(b.scatterSeen))
		for k, out := range b.scatterSeen {
			st.Scatter = append(st.Scatter, ScatterOutcome{Key: k, Out: out})
		}
		sort.Slice(st.Scatter, func(i, j int) bool { return st.Scatter[i].Key < st.Scatter[j].Key })
	}
	if len(b.scatterPending) > 0 {
		st.Pending = make([]PendingScatter, 0, len(b.scatterPending))
		for k, p := range b.scatterPending {
			st.Pending = append(st.Pending, PendingScatter{Key: k, Owner: p.owner, Obs: p.obs})
		}
		sort.Slice(st.Pending, func(i, j int) bool { return st.Pending[i].Key < st.Pending[j].Key })
	}
	return st
}

// ImportState replaces the backend's durable state wholesale with a
// previously exported one. Import into a freshly constructed backend
// before attaching any log and before any ingestion; a failed import
// leaves the backend untouched.
func (b *Backend) ImportState(st *PersistentState) error {
	if st == nil {
		return fmt.Errorf("server: import nil state")
	}
	if st.Schema != PersistentStateSchema {
		return fmt.Errorf("server: state schema %q, want %q", st.Schema, PersistentStateSchema)
	}
	seen := make(map[string]bool, len(st.Seen))
	for _, id := range st.Seen {
		seen[id] = true
	}
	scatter := make(map[string]stage.EstimateOutput, len(st.Scatter))
	for _, sc := range st.Scatter {
		if _, dup := scatter[sc.Key]; dup {
			return fmt.Errorf("server: state has duplicate scatter key %q", sc.Key)
		}
		scatter[sc.Key] = sc.Out
	}
	pending := make(map[string]pendingScatter, len(st.Pending))
	for _, p := range st.Pending {
		if _, dup := pending[p.Key]; dup {
			return fmt.Errorf("server: state has duplicate pending scatter key %q", p.Key)
		}
		pending[p.Key] = pendingScatter{owner: p.Owner, obs: p.Obs}
	}
	if st.Estimator == nil {
		return fmt.Errorf("server: state has no estimator")
	}
	if err := b.est.ImportState(st.Estimator); err != nil {
		return err
	}
	b.dedupMu.Lock()
	b.seen = seen
	b.dedupMu.Unlock()
	b.scatterMu.Lock()
	b.scatterSeen = scatter
	b.scatterPending = pending
	b.scatterMu.Unlock()
	b.statsMu.Lock()
	b.stats = st.Stats
	b.statsMu.Unlock()
	return nil
}

// storeRecord is the store's record envelope. Kind "trip" carries one
// accepted upload; kind "scatter" carries one cross-shard observation
// group received for folding. Any other kind — none at all included —
// is a kind this build does not know: skipped and counted, never
// guessed at.
type storeRecord struct {
	Kind string                `json:"kind,omitempty"`
	Trip *probe.Trip           `json:"trip,omitempty"`
	Key  string                `json:"key,omitempty"`
	Obs  []traffic.Observation `json:"obs,omitempty"`
}

const (
	recKindTrip    = "trip"
	recKindScatter = "scatter"
)

// decodeStoreRecord parses one record line. ok is false for lines that
// are not records this build can replay.
func decodeStoreRecord(line []byte) (storeRecord, bool) {
	var rec storeRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return storeRecord{}, false
	}
	switch rec.Kind {
	case recKindTrip:
		return rec, rec.Trip != nil
	case recKindScatter:
		return rec, true
	default:
		return storeRecord{}, false
	}
}

// StoreLog adapts a *store.Store to the backend's append points: trips
// on the upload path (TripLog) and scatter groups on the cross-shard
// fold path. Safe for concurrent use (the store serializes appends).
type StoreLog struct {
	s *store.Store
}

// NewStoreLog wraps an open store.
func NewStoreLog(s *store.Store) *StoreLog { return &StoreLog{s: s} }

// Store exposes the underlying store (checkpointing, tests).
func (l *StoreLog) Store() *store.Store { return l.s }

// Append implements TripLog: one "trip" record line.
func (l *StoreLog) Append(ctx context.Context, trip probe.Trip) error {
	line, err := json.Marshal(storeRecord{Kind: recKindTrip, Trip: &trip})
	if err != nil {
		return fmt.Errorf("server: encode trip record: %w", err)
	}
	err = l.s.Append(ctx, line)
	if errors.Is(err, store.ErrRecordTooLarge) {
		// The record can never fit, so the trip is refused like a
		// malformed one rather than retried.
		return fmt.Errorf("%w: %v", ErrInvalidTrip, err)
	}
	return err
}

// AppendScatter persists one received cross-shard observation group
// under its idempotency key, so the receiving shard's own replay
// restores folds whose originating trip lives in a peer's log.
func (l *StoreLog) AppendScatter(ctx context.Context, key string, obs []traffic.Observation) error {
	line, err := json.Marshal(storeRecord{Kind: recKindScatter, Key: key, Obs: obs})
	if err != nil {
		return fmt.Errorf("server: encode scatter record: %w", err)
	}
	return l.s.Append(ctx, line)
}

// Close flushes and closes the underlying store.
func (l *StoreLog) Close() error { return l.s.Close() }

// AttachTripLog makes the backend append every accepted trip to the
// log. Attach AFTER replay, or replayed trips would be appended again;
// recovery sequences this itself.
func (b *Backend) AttachTripLog(l TripLog) {
	b.dedupMu.Lock()
	b.tripLog = l
	b.dedupMu.Unlock()
}

// attachScatterLog makes FoldScatter persist received groups.
func (b *Backend) attachScatterLog(l *StoreLog) {
	b.scatterMu.Lock()
	b.scatterLog = l
	b.scatterMu.Unlock()
}

// Checkpoint writes a snapshot at a sealed segment boundary and
// compacts the store behind it. The sequence quiesces ingestion for
// the seal + export only (trips hold checkpointMu.RLock across
// admit→fold, received scatters hold scatterMu across append→fold, so
// under both write locks no record can land on one side of the
// boundary with its fold on the other); the snapshot write and the
// compaction run after the locks drop. Checkpoints are single-flight:
// two overlapping calls with no record between them would both write
// the same snap-<upTo>.snap.tmp (Seal is a no-op for the second), and
// the interleaved bytes renamed into place fail their CRC on the next
// boot.
func (b *Backend) Checkpoint() error {
	b.scatterMu.Lock()
	sl := b.scatterLog
	b.scatterMu.Unlock()
	if sl == nil {
		return fmt.Errorf("server: checkpoint without an attached store")
	}
	b.checkpointFlight.Lock()
	defer b.checkpointFlight.Unlock()
	// Re-deliver pending cross-shard groups before the cut: this
	// snapshot may cover (and its compaction delete) the originating
	// trip records, leaving the exported Pending list as those groups'
	// only route to their owners. Drain what can be drained; the rest
	// exports below and retries at the next checkpoint or recovery.
	b.RetryPendingScatters(context.Background()) //lint:allow ctxpropagate checkpoints run from the snapshotter and shutdown with no request in flight; durability work must not be cut short by a caller's deadline
	b.checkpointMu.Lock()                        //lint:allow lockorder checkpointFlight is taken only in this function and always first, so the order cannot invert
	b.scatterMu.Lock()                           //lint:allow lockorder deliberate checkpointMu>scatterMu order, the only place both are held; FoldScatter takes scatterMu alone so the cut cannot deadlock
	upTo, err := sl.s.Seal()
	var blob []byte
	if err == nil {
		blob, err = json.Marshal(b.exportStateScatterLocked())
	}
	b.scatterMu.Unlock()
	b.checkpointMu.Unlock()
	if err != nil {
		return err
	}
	if err := sl.s.WriteSnapshot(upTo, blob); err != nil {
		return err
	}
	_, err = sl.s.Compact()
	return err
}

// ShardStoreDir names one shard's store directory under a deployment's
// base store directory. Every topology uses it — a monolith is shard 0
// — so converting a monolith to a sharded deployment (or back) finds
// the data where it expects it. Changing the shard COUNT invalidates
// snapshots and logs (trips would replay onto different owners);
// recover such a deployment by replaying every shard's store through a
// coordinator with the new count, into fresh directories.
func ShardStoreDir(base string, shard int) string {
	return filepath.Join(base, fmt.Sprintf("shard%d", shard))
}

// StoreRecovery is one backend's recovery outcome: the store-level
// report plus the pipeline-level replay counts.
type StoreRecovery struct {
	// Shard is the backend's shard index (0 for a monolith).
	Shard int `json:"shard"`
	// Report is the store's recovery report (mode, snapshot used,
	// segments walked, corruption notes).
	Report store.Report `json:"report"`
	// TripsReplayed counts tail trips accepted by the pipeline.
	TripsReplayed int `json:"tripsReplayed"`
	// TripsSkipped counts tail lines that were not replayable trips:
	// undecodable records and pipeline rejections (duplicates already
	// covered by the snapshot never occur on an intact store — the
	// checkpoint cut is exact — so a nonzero rejection count here means
	// a degraded recovery re-walked records a snapshot already covers).
	TripsSkipped int `json:"tripsSkipped"`
	// ScatterReplayed counts received-scatter records refolded.
	ScatterReplayed int `json:"scatterReplayed"`
	// SnapshotImported reports that a snapshot state blob was loaded.
	SnapshotImported bool `json:"snapshotImported"`
	// Err records a per-shard recovery failure (degraded boot: the
	// other shards keep recovering).
	Err string `json:"err,omitempty"`

	log *StoreLog
}

// Log returns the opened store log (attached to the backend by the
// recovery that produced this).
func (r *StoreRecovery) Log() *StoreLog { return r.log }

// recoverTarget is one local backend to restore and where its store
// lives.
type recoverTarget struct {
	b   *Backend
	dir string
}

// recoverBackends is the one recovery routine: it restores freshly
// constructed local backends from their store directories and leaves
// every store attached and appending. The phases run across the whole
// slice so cross-shard scatters replayed by one shard land on peers
// that have already imported their snapshots:
//
//  1. Per backend: the store opens for appending (Open touches no
//     segment: the next append starts a new one, outside the plan); the
//     recovery ladder picks a snapshot and its state imports (a
//     checksum-valid snapshot whose state fails to decode falls all the
//     way to a full replay); the scatter log attaches.
//  2. Every tail replays in slice order: trips re-process (their
//     cross-shard groups re-scatter under the original idempotency
//     keys; a shard's own replayed scatter records fold without
//     re-appending), so after replay each backend is byte-identical
//     to one that never crashed.
//  3. Cross-shard groups the snapshots listed as pending are
//     re-delivered — every local peer has imported and replayed by
//     now (best-effort: an unreachable owner keeps them pending for
//     the next checkpoint's retry).
//  4. Trip logs attach.
//
// A backend whose phase 1 fails is recorded (Err) and left fresh with
// no log; the rest still recover. Data-level corruption degrades
// inside the report instead. The error return is reserved for context
// cancellation.
func recoverBackends(ctx context.Context, opts store.Options, targets []recoverTarget) ([]*StoreRecovery, error) {
	recs := make([]*StoreRecovery, len(targets))
	plans := make([]*store.Recovery, len(targets))
	for i, t := range targets {
		recs[i] = &StoreRecovery{Shard: t.b.shardIdx}
		shardOpts := opts
		shardOpts.Dir = t.dir
		plan, s, err := openAndPlan(shardOpts, t.b, recs[i])
		if err != nil {
			recs[i].Err = err.Error()
			continue
		}
		plans[i] = plan
		recs[i].log = NewStoreLog(s)
		t.b.attachScatterLog(recs[i].log)
	}
	for i, plan := range plans {
		if plan == nil {
			continue
		}
		if err := recoverReplay(ctx, plan, targets[i].b, recs[i]); err != nil {
			for _, r := range recs {
				if r.log != nil {
					_ = r.log.Close() //lint:allow errcheckio best-effort close on a canceled recovery; the cancellation is the cause worth reporting
				}
			}
			return recs, err
		}
		recs[i].Report = plan.Report
	}
	for i := range plans {
		if plans[i] != nil {
			targets[i].b.RetryPendingScatters(ctx)
		}
	}
	for i := range plans {
		if plans[i] != nil {
			targets[i].b.AttachTripLog(recs[i].log)
		}
	}
	return recs, nil
}

// RecoverBackendStore restores one freshly constructed backend from
// the store directory opts.Dir (recoverBackends over a single target).
// Unlike the coordinator's degraded boot, a store that cannot be opened
// or planned is an error: a lone backend has no peers to serve around
// it. legacy must be empty: it named a single-file journal to
// migrate, a format no build writes any more, and stays in the
// signature only because the benchmark compiles against it.
func RecoverBackendStore(ctx context.Context, opts store.Options, legacy string, b *Backend) (*StoreRecovery, error) {
	if legacy != "" {
		return nil, fmt.Errorf("server: legacy journal %q: single-file journals are no longer migrated", legacy)
	}
	recs, err := recoverBackends(ctx, opts, []recoverTarget{{b: b, dir: opts.Dir}})
	if err != nil {
		return nil, err
	}
	if recs[0].Err != "" {
		return nil, errors.New(recs[0].Err)
	}
	return recs[0], nil
}

// RecoverStores restores every in-process shard of a coordinator from
// per-shard store directories under base (ShardStoreDir). A shard whose
// recovery fails is recorded (Err) and left fresh — the remaining
// shards still recover (degraded boot, matching the degraded-read
// philosophy).
func (c *Coordinator) RecoverStores(ctx context.Context, base string, opts store.Options) ([]*StoreRecovery, error) {
	targets := make([]recoverTarget, len(c.backends))
	for i, b := range c.backends {
		if b == nil {
			return nil, fmt.Errorf("server: shard %d is remote; it recovers its own store", i)
		}
		targets[i] = recoverTarget{b: b, dir: ShardStoreDir(base, i)}
	}
	return recoverBackends(ctx, opts, targets)
}

// openAndPlan is phase 1 for one backend: open, plan, import — opening
// first so a store that cannot open leaves the backend fresh. It
// returns the open store and the plan whose tail phase 2 replays.
func openAndPlan(opts store.Options, b *Backend, rec *StoreRecovery) (*store.Recovery, *store.Store, error) {
	s, err := store.Open(opts)
	if err != nil {
		return nil, nil, err
	}
	plan, err := planAndImport(opts, b, rec)
	if err != nil {
		_ = s.Close() //lint:allow errcheckio best-effort close; the backend boots fresh without a log and the plan error is the cause worth reporting
		return nil, nil, err
	}
	rec.Report = plan.Report
	return plan, s, nil
}

// planAndImport runs the recovery ladder over a store directory and
// imports the chosen snapshot's state into the backend, dropping the
// plan to a full replay when a checksum-valid snapshot fails to decode.
func planAndImport(opts store.Options, b *Backend, rec *StoreRecovery) (*store.Recovery, error) {
	plan, err := store.PlanRecovery(opts)
	if err != nil || plan.State == nil {
		return plan, err
	}
	var st PersistentState
	ierr := json.Unmarshal(plan.State, &st)
	if ierr == nil {
		ierr = b.ImportState(&st)
	}
	if ierr == nil {
		rec.SnapshotImported = true
		return plan, nil
	}
	plan.FullReplay()
	plan.Report.Notes = append(plan.Report.Notes,
		fmt.Sprintf("snapshot state not importable (%v); fell back to full replay", ierr))
	return plan, nil
}

// recoverReplay walks the planned tail through the backend's pipeline.
// Scatter appends during replay go to peers only: re-processing this
// shard's own trips re-scatters their cross-shard groups (the
// receiving backend records them durably, or suppresses them as
// duplicates), while this shard's own received-scatter records refold
// locally without re-appending.
func recoverReplay(ctx context.Context, plan *store.Recovery, b *Backend, rec *StoreRecovery) error {
	return plan.Replay(ctx, func(line []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, ok := decodeStoreRecord(line)
		if !ok {
			rec.TripsSkipped++
			return nil
		}
		switch r.Kind {
		case recKindTrip:
			if _, err := b.ProcessTrip(ctx, *r.Trip); err != nil {
				if ctx.Err() != nil {
					return err
				}
				rec.TripsSkipped++
				return nil
			}
			rec.TripsReplayed++
		case recKindScatter:
			b.foldScatterReplay(ctx, r.Key, r.Obs)
			rec.ScatterReplayed++
		}
		return nil
	})
}
