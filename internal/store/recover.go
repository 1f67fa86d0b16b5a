package store

import (
	"context"
	"fmt"
	"os"
)

// Report is one store directory's recovery outcome, shaped for the
// boot-time recovery artifact (JSON) and the boot log.
type Report struct {
	// Dir is the store directory recovered.
	Dir string `json:"dir"`
	// Mode is how state was rebuilt: "fresh" (empty store),
	// "snapshot+tail" (state import plus tail replay), or
	// "full-replay" (no usable snapshot; every surviving segment
	// replayed).
	Mode string `json:"mode"`
	// SnapshotSeq is the segment boundary of the snapshot used
	// (snapshot+tail mode only).
	SnapshotSeq uint64 `json:"snapshotSeq,omitempty"`
	// SnapshotsSkipped counts snapshots rejected on the way down the
	// ladder (checksum mismatch, missing tail segment).
	SnapshotsSkipped int `json:"snapshotsSkipped,omitempty"`
	// SealedSegments counts segment files present (once its writer
	// stops, every segment is sealed).
	SealedSegments int `json:"sealedSegments"`
	// SegmentsReplayed counts segment files walked during replay.
	SegmentsReplayed int `json:"segmentsReplayed"`
	// RecordsReplayed counts record lines delivered to the replay
	// callback. The caller layers its own accept/reject counts on top.
	RecordsReplayed int `json:"recordsReplayed"`
	// RecordsSkipped counts store-level skips: lines whose checksum
	// prefix does not verify, oversized lines, and torn tails.
	RecordsSkipped int `json:"recordsSkipped"`
	// CorruptSegments counts segments holding a complete line that
	// failed its checksum or length bound, or that could not be read
	// (their verified lines replay anyway).
	CorruptSegments int `json:"corruptSegments,omitempty"`
	// TornTail reports a segment ending in a half-written record
	// (normal after a crash mid-append; reported on every recovery
	// until compaction removes that segment).
	TornTail bool `json:"tornTail,omitempty"`
	// Notes carries human-readable detail for every degraded decision.
	Notes []string `json:"notes,omitempty"`
}

// Recovery is a recovery decision: which snapshot state to import (if
// any) and which segments to replay after it. Build one with
// PlanRecovery, import State, then call Replay.
type Recovery struct {
	// State is the snapshot blob to import before replaying, nil when
	// no usable snapshot survived.
	State []byte
	// Report accumulates the outcome; Replay updates its counters.
	Report Report

	opts Options
	// all is every segment sequence present, ascending; tail is the
	// suffix of it Replay walks.
	all, tail []uint64
}

// PlanRecovery inspects a store directory and picks the cheapest safe
// way back to the pre-crash state:
//
//  1. The newest snapshot whose checksum verifies and whose tail
//     segments (every sequence above its boundary) all exist.
//  2. Failing that, each older snapshot in turn under the same test.
//  3. Failing all snapshots, a full replay of every segment present.
//
// A store directory that does not exist or is empty plans a "fresh"
// recovery with nothing to do. PlanRecovery only reads snapshot files;
// segment contents are verified during Replay.
func PlanRecovery(opts Options) (*Recovery, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: no directory configured")
	}
	ls, err := listDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	r := &Recovery{opts: opts}
	r.Report.Dir = opts.Dir
	r.Report.SealedSegments = len(ls.segs)
	for _, sf := range ls.segs {
		r.all = append(r.all, sf.seq)
	}
	if len(r.all) == 0 && len(ls.snaps) == 0 {
		r.Report.Mode = "fresh"
		return r, nil
	}
	for i := len(ls.snaps) - 1; i >= 0; i-- {
		sf := ls.snaps[i]
		hdr, state, err := readSnapshotFile(sf.path)
		if err != nil {
			r.Report.SnapshotsSkipped++
			r.note("snapshot %08d rejected: %v", sf.upTo, err)
			continue
		}
		tail, gap := tailAfter(r.all, hdr.UpTo)
		if gap != "" {
			r.Report.SnapshotsSkipped++
			r.note("snapshot %08d unusable: %s", sf.upTo, gap)
			continue
		}
		r.State = state
		r.tail = tail
		r.Report.Mode = "snapshot+tail"
		r.Report.SnapshotSeq = hdr.UpTo
		return r, nil
	}
	r.FullReplay()
	return r, nil
}

// FullReplay re-plans as the bottom rung of the ladder: no snapshot,
// every segment present replayed. A caller reaches for it when the
// checksum-valid snapshot the plan chose carries state it cannot decode
// (a schema change, a cross-version downgrade); PlanRecovery lands here
// itself when no snapshot is usable. Holes in the sequence are noted —
// their records are gone; the replay covers what survives.
func (r *Recovery) FullReplay() {
	r.State, r.tail = nil, r.all
	r.Report.Mode, r.Report.SnapshotSeq = "full-replay", 0
	for i := 1; i < len(r.all); i++ {
		if r.all[i] != r.all[i-1]+1 {
			r.note("missing segment(s) %08d..%08d; replaying what exists", r.all[i-1]+1, r.all[i]-1)
		}
	}
}

// tailAfter selects the sequences above upTo and checks contiguity:
// every sequence in (upTo, maxSeq] must be present, else replay would
// silently drop the records in the hole. A non-empty gap description
// means the snapshot at upTo cannot be used.
func tailAfter(seqs []uint64, upTo uint64) ([]uint64, string) {
	for len(seqs) > 0 && seqs[0] <= upTo {
		seqs = seqs[1:]
	}
	want := upTo + 1
	for _, seq := range seqs {
		if seq != want {
			return nil, fmt.Sprintf("missing tail segment(s) %08d..%08d", want, seq-1)
		}
		want = seq + 1
	}
	return seqs, ""
}

func (r *Recovery) note(format string, args ...any) {
	r.Report.Notes = append(r.Report.Notes, fmt.Sprintf(format, args...))
}

// Replay walks the planned segments in order, delivering every record
// line whose checksum verifies to fn. Any other line — a bad checksum
// or prefix, an oversized line, a torn tail — is skipped, counted and
// noted, and the rest of its segment still replays. An error from fn
// aborts the walk — reserve it for cancellation; per-record rejections
// belong inside fn.
func (r *Recovery) Replay(ctx context.Context, fn func(rec []byte) error) error {
	for _, seq := range r.tail {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("store: replay canceled: %w", err)
		}
		if err := r.replaySegment(seq, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment replays one segment. An unreadable file is noted and
// skipped (degraded boot); only an fn error propagates.
func (r *Recovery) replaySegment(seq uint64, fn func(rec []byte) error) error {
	f, err := os.Open(segmentPath(r.opts.Dir, seq))
	if err != nil {
		r.Report.CorruptSegments++
		r.note("segment %08d unreadable: %v", seq, err)
		return nil
	}
	defer f.Close()
	r.Report.SegmentsReplayed++
	var fnErr error
	st, err := readSegment(f, MaxRecordBytes, func(line []byte) error {
		if len(line) > 0 {
			r.Report.RecordsReplayed++
			fnErr = fn(line)
		}
		return fnErr
	})
	if fnErr != nil {
		return fnErr
	}
	r.Report.RecordsSkipped += st.bad
	if st.bad > 0 || err != nil {
		r.Report.CorruptSegments++
	}
	if st.bad > 0 {
		r.note("segment %08d: %d line(s) failed their checksum or length bound; skipped", seq, st.bad)
	}
	if err != nil {
		r.note("segment %08d unreadable after %d records: %v", seq, st.records, err)
	}
	if st.tornBytes > 0 {
		r.Report.RecordsSkipped++
		r.Report.TornTail = true
		r.note("segment %08d ends in a torn line of %d bytes (crash mid-append); that record was never acked", seq, st.tornBytes)
	}
	return nil
}
