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
	// SealedSegments counts sealed segment files present.
	SealedSegments int `json:"sealedSegments"`
	// SegmentsReplayed counts segment files walked during replay.
	SegmentsReplayed int `json:"segmentsReplayed"`
	// RecordsReplayed counts record lines delivered to the replay
	// callback. The caller layers its own accept/reject counts on top.
	RecordsReplayed int `json:"recordsReplayed"`
	// RecordsSkipped counts store-level skips: oversized lines and
	// lines lost to a torn tail.
	RecordsSkipped int `json:"recordsSkipped"`
	// CorruptSegments counts sealed segments whose checksum or footer
	// failed verification (their parseable lines replay anyway).
	CorruptSegments int `json:"corruptSegments,omitempty"`
	// TornTail reports a half-written final record (normal after a
	// crash mid-append).
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
	// suffix of it Replay walks. Segments are named by sequence, not by
	// path: Open may finish a pending seal, or a writer roll the active
	// segment, between planning and replay, and the rename keeps every
	// record line.
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
	r.Report.SealedSegments = len(ls.sealed)
	for _, sf := range ls.sealed {
		r.all = append(r.all, sf.seq)
	}
	if ls.active != nil {
		r.all = append(r.all, ls.active.seq)
	}
	if len(r.all) == 0 && len(ls.snaps) == 0 {
		r.Report.Mode = "fresh"
		return r, nil
	}
	// A directory holding nothing but one empty active segment is a
	// virgin store that has merely been opened: Open creates the active
	// file eagerly, and recovery paths open the store before planning
	// so the plan matches the normalized directory.
	if len(ls.sealed) == 0 && len(ls.snaps) == 0 && ls.active != nil {
		if fi, err := os.Stat(ls.active.path); err == nil && fi.Size() == 0 {
			r.Report.Mode = "fresh"
			return r, nil
		}
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
// line to fn. A sealed segment's checksum is verified in the same pass
// that delivers its lines; a mismatch is counted and noted but the
// lines still replay (half a segment beats none). Oversized lines are
// skipped and counted. An error from fn aborts the walk — reserve it
// for cancellation; per-record rejections belong inside fn.
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

// replaySegment replays one segment: its sealed file, else its active
// one. Unreadable files are noted and skipped (degraded boot); only an
// fn error propagates.
func (r *Recovery) replaySegment(seq uint64, fn func(rec []byte) error) error {
	f, err := os.Open(sealedPath(r.opts.Dir, seq))
	sealed := err == nil
	if os.IsNotExist(err) {
		f, err = os.Open(activePath(r.opts.Dir, seq))
	}
	if err != nil {
		r.Report.CorruptSegments++
		r.note("segment %08d unreadable: %v", seq, err)
		return nil
	}
	defer f.Close()
	r.Report.SegmentsReplayed++
	var fnErr error
	st, err := readSegment(f, r.opts.MaxRecordBytes, func(line []byte) error {
		if len(line) > 0 {
			r.Report.RecordsReplayed++
			fnErr = fn(line)
		}
		return fnErr
	})
	r.Report.RecordsSkipped += st.oversized
	switch {
	case fnErr != nil:
		return fnErr
	case err != nil:
		r.Report.CorruptSegments++
		r.note("segment %08d unreadable past byte %d: %v", seq, st.goodBytes, err)
		return nil
	case !sealed:
	case !st.sealed:
		r.Report.CorruptSegments++
		r.note("sealed segment %08d missing its footer; replaying its lines anyway", seq)
	case st.footer.CRC32 != st.crc || st.footer.Bytes != st.goodBytes:
		r.Report.CorruptSegments++
		r.note("sealed segment %08d checksum mismatch (got %08x want %08x); replaying parseable lines", seq, st.crc, st.footer.CRC32)
	}
	if st.tornBytes > 0 {
		r.Report.RecordsSkipped++
		r.Report.TornTail = true
		if sealed {
			r.note("sealed segment %08d has a torn tail", seq)
		} else {
			r.note("active segment %08d has a torn tail (crash mid-append); last record dropped", seq)
		}
	}
	return nil
}
