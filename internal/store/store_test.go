package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"busprobe/internal/clock"
)

func testClock() clock.Clock {
	return clock.NewFake(time.Unix(1700000000, 0), time.Millisecond)
}

func testOpts(dir string) Options {
	return Options{Dir: dir, SegmentBytes: 256, Clock: testClock()}
}

// rec renders the i-th test record: fixed width (so segment-roll
// arithmetic is predictable) and valid JSON (a leading 1 digit keeps
// the zero padding from reading as an illegal leading zero).
func rec(i int) []byte {
	return []byte(fmt.Sprintf(`{"rec":1%06d}`, i))
}

func appendRecords(t *testing.T, s *Store, from, n int) {
	t.Helper()
	ctx := context.Background()
	for i := from; i < from+n; i++ {
		if err := s.Append(ctx, rec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// recoverAll replays the directory, returning the plan and the
// replayed lines in order.
func recoverAll(t *testing.T, dir string) (*Recovery, []string) {
	t.Helper()
	return recoverWith(t, testOpts(dir))
}

func recoverWith(t *testing.T, opts Options) (*Recovery, []string) {
	t.Helper()
	r, err := PlanRecovery(opts)
	if err != nil {
		t.Fatalf("plan recovery: %v", err)
	}
	var lines []string
	if err := r.Replay(context.Background(), func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return r, lines
}

func wantLines(t *testing.T, got []string, from, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, g := range got {
		if want := string(rec(from + i)); g != want {
			t.Fatalf("record %d = %q, want %q", i, g, want)
		}
	}
}

func TestAppendRollRecoverFullReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 0, 100) // 24-byte lines, 256-byte segments → many seals
	upTo, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if upTo < 2 {
		t.Fatalf("highest sealed segment %d, want several", upTo)
	}
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "full-replay" {
		t.Fatalf("mode = %q, want full-replay", r.Report.Mode)
	}
	if r.State != nil {
		t.Fatalf("unexpected snapshot state")
	}
	wantLines(t, lines, 0, 100)
	if r.Report.CorruptSegments != 0 || r.Report.TornTail {
		t.Fatalf("unexpected corruption: %+v", r.Report)
	}
}

func TestSnapshotTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 0, 50)
	upTo, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	state := []byte(`{"covers":50}`)
	if err := s.WriteSnapshot(upTo, state); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 50, 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "snapshot+tail" {
		t.Fatalf("mode = %q, want snapshot+tail (report %+v)", r.Report.Mode, r.Report)
	}
	if string(r.State) != string(state) {
		t.Fatalf("state = %q, want %q", r.State, state)
	}
	if r.Report.SnapshotSeq != upTo {
		t.Fatalf("snapshot seq = %d, want %d", r.Report.SnapshotSeq, upTo)
	}
	wantLines(t, lines, 50, 20)
}

// TestTornTailSkippedAndKeptOnReopen: a crash mid-append leaves a torn
// final line. Recovery skips and reports it; a reopened store leaves
// that segment byte-identical and appends to the next sequence, so
// every later recovery reports the same torn line until compaction
// removes its segment.
func TestTornTailSkippedAndKeptOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 0, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a record, no newline.
	torn := lastSegment(t, dir)
	appendBytes(t, torn.path, frame(string(rec(9999)))[:14])
	r, lines := recoverAll(t, dir)
	wantLines(t, lines, 0, 10)
	if !r.Report.TornTail || r.Report.RecordsSkipped != 1 {
		t.Fatalf("torn tail not reported: %+v", r.Report)
	}
	before, err := os.ReadFile(torn.path)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s2, 10, 5)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(torn.path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("reopen rewrote the torn segment (err %v)", err)
	}
	if _, err := os.Stat(segmentPath(dir, torn.seq+1)); err != nil {
		t.Fatalf("appends after reopen did not land in segment %08d: %v", torn.seq+1, err)
	}
	r2, lines2 := recoverAll(t, dir)
	wantLines(t, lines2, 0, 15)
	if !r2.Report.TornTail || r2.Report.RecordsSkipped != 1 {
		t.Fatalf("the kept torn line is no longer reported: %+v", r2.Report)
	}
}

func TestCorruptSnapshotFallsBackOneSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 0, 30)
	up1, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(up1, []byte(`{"snap":1}`)); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 30, 30)
	up2, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(up2, []byte(`{"snap":2}`)); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 60, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the newest snapshot's state blob.
	corruptFile(t, snapshotPath(dir, up2), -1)
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "snapshot+tail" {
		t.Fatalf("mode = %q, want snapshot+tail", r.Report.Mode)
	}
	if string(r.State) != `{"snap":1}` {
		t.Fatalf("state = %q, want the older snapshot", r.State)
	}
	if r.Report.SnapshotsSkipped != 1 {
		t.Fatalf("snapshots skipped = %d, want 1", r.Report.SnapshotsSkipped)
	}
	// Tail from the older boundary: records 30..69.
	wantLines(t, lines, 30, 40)
}

func TestMissingMiddleSegmentFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 0, 20)
	upTo, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(upTo, []byte(`{"snap":1}`)); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 20, 60) // several tail segments
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove a sealed tail segment above the snapshot boundary.
	ls, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim segFile
	for _, sf := range ls.segs {
		if sf.seq > upTo {
			victim = sf
			break
		}
	}
	if victim.path == "" {
		t.Fatal("test needs a sealed segment above the snapshot boundary")
	}
	if err := os.Remove(victim.path); err != nil {
		t.Fatal(err)
	}
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "full-replay" {
		t.Fatalf("mode = %q, want full-replay (report %+v)", r.Report.Mode, r.Report)
	}
	if r.Report.SnapshotsSkipped != 1 {
		t.Fatalf("snapshots skipped = %d, want 1", r.Report.SnapshotsSkipped)
	}
	// Everything except the deleted segment's records replays, with a
	// note naming the hole.
	if len(lines) >= 80 || len(lines) == 0 {
		t.Fatalf("replayed %d records, want a partial set", len(lines))
	}
	found := false
	for _, n := range r.Report.Notes {
		if strings.Contains(n, "missing segment") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no missing-segment note: %v", r.Report.Notes)
	}
}

func TestCompactKeepsTwoSnapshotsAndTheirTails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	var bounds []uint64
	next := 0
	for snap := 1; snap <= 3; snap++ {
		appendRecords(t, s, next, 30)
		next += 30
		upTo, err := s.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(upTo, []byte(fmt.Sprintf(`{"snap":%d}`, snap))); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, upTo)
	}
	removed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("compaction removed nothing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ls, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.snaps) != 2 {
		t.Fatalf("snapshots after compact = %d, want 2", len(ls.snaps))
	}
	for _, sf := range ls.segs {
		if sf.seq <= bounds[1] {
			t.Fatalf("segment %08d should have been compacted (<= %08d)", sf.seq, bounds[1])
		}
	}
	// Normal recovery uses the newest snapshot.
	r, _ := recoverAll(t, dir)
	if r.Report.Mode != "snapshot+tail" || string(r.State) != `{"snap":3}` {
		t.Fatalf("post-compact recovery: mode=%q state=%q", r.Report.Mode, r.State)
	}
	// The retention rule's whole point: corrupt the newest snapshot and
	// the previous one must still have its tail intact.
	corruptFile(t, snapshotPath(dir, bounds[2]), -1)
	r2, lines := recoverAll(t, dir)
	if r2.Report.Mode != "snapshot+tail" || string(r2.State) != `{"snap":2}` {
		t.Fatalf("fallback after compact: mode=%q state=%q notes=%v", r2.Report.Mode, r2.State, r2.Report.Notes)
	}
	wantLines(t, lines, 60, 30)
}

func TestOversizedLineSkipped(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := frame(string(rec(1))) + frame(strings.Repeat("x", MaxRecordBytes+16)) + frame(string(rec(2)))
	if err := os.WriteFile(segmentPath(dir, 1), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	r, lines := recoverWith(t, opts)
	if len(lines) != 2 {
		t.Fatalf("replayed %d, want 2 (oversized line skipped)", len(lines))
	}
	if r.Report.RecordsSkipped != 1 || r.Report.CorruptSegments != 1 {
		t.Fatalf("skipped = %d, corrupt = %d, want 1 and 1", r.Report.RecordsSkipped, r.Report.CorruptSegments)
	}
	// The writer refuses records it could not replay.
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(context.Background(), []byte(strings.Repeat("y", MaxRecordBytes))); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized append: err %v, want ErrRecordTooLarge", err)
	}
	appendRecords(t, s, 3, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r2, lines := recoverWith(t, opts)
	if len(lines) != 3 || r2.Report.RecordsSkipped != 1 || r2.Report.CorruptSegments != 1 || r2.Report.SealedSegments != 2 {
		t.Fatalf("after one more append: replayed %d, report %+v", len(lines), r2.Report)
	}
}

// TestReadSegment pins the one reader of the record line format.
func TestReadSegment(t *testing.T) {
	const maxLine = 96 // far below a bufio chunk
	a, b := frame(string(rec(1))), frame(string(rec(2)))
	flipped := strings.Replace(b, "1000002", "1000012", 1) // valid JSON, stale checksum
	exact := frame(strings.Repeat("e", maxLine))
	over := frame(strings.Repeat("o", maxLine+1))
	giant := frame(strings.Repeat("g", 3*4096+17)) // spans several bufio chunks
	torn := b[:12]
	// The previous layout ended a sealed segment with an unframed footer
	// line. The reader has no footer rule: that line is a bad line, and
	// a framed footer-shaped payload is a record like any other.
	footer := `{"busprobeSeal":1,"records":2,"bytes":48,"crc32":305419896}` + "\n"
	framedFooter := frame(strings.TrimSuffix(footer, "\n"))
	payloads := func(lines ...string) []string {
		for i := range lines {
			lines[i] = lines[i][prefixLen : len(lines[i])-1]
		}
		return lines
	}
	cases := []struct {
		name  string
		in    string
		lines []string // payloads delivered, in order
		bad   int
		torn  int64
	}{
		{name: "empty file"},
		{name: "records only", in: a + b, lines: payloads(a, b)},
		{name: "torn tail", in: a + b + torn, lines: payloads(a, b), torn: int64(len(torn))},
		{name: "only a torn tail", in: torn, torn: int64(len(torn))},
		{name: "bad CRC mid-file", in: a + flipped + b, lines: payloads(a, b), bad: 1},
		{name: "bad CRC on the final complete line", in: a + flipped, lines: payloads(a), bad: 1},
		{name: "bad CRC then torn tail", in: a + flipped + torn, lines: payloads(a), bad: 1, torn: int64(len(torn))},
		{name: "unparseable prefix", lines: payloads(a, b), bad: 4,
			// unframed, a non-hex digit, no space after the digits, nothing at all
			in: a + string(rec(3)) + "\n" + "z" + a[1:] + a[:8] + "_" + a[9:] + "\n" + b},
		{name: "line of exactly maxLine", in: a + exact + b, lines: payloads(a, exact, b)},
		{name: "line of maxLine+1", in: a + over + b, lines: payloads(a, b), bad: 1},
		{name: "oversized line across chunks", in: a + giant + b, lines: payloads(a, b), bad: 1},
		{name: "oversized torn tail", in: a + b + strings.TrimSuffix(giant, "\n"), lines: payloads(a, b),
			torn: int64(len(giant) - 1)},
		{name: "empty lines are lines", in: a + frame("") + b, lines: payloads(a, frame(""), b)},
		{name: "records + footer", in: a + b + footer, lines: payloads(a, b), bad: 1},
		{name: "footer alone", in: footer, bad: 1},
		{name: "footer-shaped line mid-file is a record", in: a + framedFooter + b, lines: payloads(a, framedFooter, b)},
		{name: "footer then torn bytes is a record", in: a + framedFooter + "{", lines: payloads(a, framedFooter), torn: 1},
		{name: "oversized final line before footer", in: a + giant + footer, lines: payloads(a), bad: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			st, err := readSegment(strings.NewReader(tc.in), maxLine, func(line []byte) error {
				got = append(got, string(line))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.lines) {
				t.Errorf("delivered %q, want %q", got, tc.lines)
			}
			if st.records != len(tc.lines) || st.bad != tc.bad || st.tornBytes != tc.torn {
				t.Errorf("records %d bad %d torn %d, want %d %d %d",
					st.records, st.bad, st.tornBytes, len(tc.lines), tc.bad, tc.torn)
			}
		})
	}
	// An error from the callback stops the walk and comes back as is.
	stop := fmt.Errorf("stop")
	calls := 0
	if _, err := readSegment(strings.NewReader(a+b+a), maxLine, func([]byte) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("callback error: got %v after %d calls, want %v after 1", err, calls, stop)
	}
}

// TestCorruptSnapshotHeaderFallsDownLadder: the header line carries no
// checksum, so a damaged stateBytes must read as "this snapshot does
// not exist" — never as an allocation of whatever number the damage
// left there.
func TestCorruptSnapshotHeaderFallsDownLadder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	var bounds []uint64
	for snap := 0; snap < 2; snap++ {
		appendRecords(t, s, snap*30, 30)
		upTo, err := s.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(upTo, []byte(fmt.Sprintf(`{"snap":%d}`, snap+1))); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, upTo)
	}
	appendRecords(t, s, 60, 10)
	inflate := func(upTo uint64) {
		t.Helper()
		b, err := os.ReadFile(snapshotPath(dir, upTo))
		if err != nil {
			t.Fatal(err)
		}
		b = bytes.Replace(b, []byte(`"stateBytes":10`), []byte(`"stateBytes":7000000000000000`), 1)
		if err := os.WriteFile(snapshotPath(dir, upTo), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inflate(bounds[1])
	// Compact must not count the damaged snapshot toward the retained
	// pair: with one valid snapshot left it removes nothing.
	if removed, err := s.Compact(); err != nil || removed != 0 {
		t.Fatalf("compact over a corrupt-header snapshot removed %d segments (err %v), want 0", removed, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "snapshot+tail" || string(r.State) != `{"snap":1}` || r.Report.SnapshotsSkipped != 1 {
		t.Fatalf("mode=%q state=%q skipped=%d notes=%v, want the previous snapshot", r.Report.Mode, r.State, r.Report.SnapshotsSkipped, r.Report.Notes)
	}
	if len(r.Report.Notes) == 0 || !strings.Contains(r.Report.Notes[0], "rejected") {
		t.Fatalf("rejection not noted: %v", r.Report.Notes)
	}
	wantLines(t, lines, 30, 40)
	// Both snapshots damaged: the bottom rung, every record replayed.
	inflate(bounds[0])
	r, lines = recoverAll(t, dir)
	if r.Report.Mode != "full-replay" || r.State != nil || r.Report.SnapshotsSkipped != 2 {
		t.Fatalf("mode=%q skipped=%d, want full-replay past 2 rejected snapshots", r.Report.Mode, r.Report.SnapshotsSkipped)
	}
	wantLines(t, lines, 0, 70)
}

// TestCompactRemovesStaleCorruptSnapshots: a corrupt snapshot behind
// the retained boundary is dead weight — no recovery uses it — and
// must be deleted instead of accumulating forever. A corrupt snapshot
// at or above the boundary stays.
func TestCompactRemovesStaleCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	var bounds []uint64
	next := 0
	for snap := 1; snap <= 3; snap++ {
		appendRecords(t, s, next, 30)
		next += 30
		upTo, err := s.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(upTo, []byte(fmt.Sprintf(`{"snap":%d}`, snap))); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, upTo)
	}
	corruptFile(t, snapshotPath(dir, bounds[0]), -1)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapshotPath(dir, bounds[0])); !os.IsNotExist(err) {
		t.Fatalf("stale corrupt snapshot not removed: %v", err)
	}
	ls, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.snaps) != 2 {
		t.Fatalf("snapshots after compact = %d, want 2", len(ls.snaps))
	}
	// Corrupt the NEWEST snapshot: it is above the retained boundary,
	// and with only one valid snapshot left compaction is a no-op that
	// must not delete it.
	corruptFile(t, snapshotPath(dir, bounds[2]), -1)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapshotPath(dir, bounds[2])); err != nil {
		t.Fatalf("corrupt newest snapshot deleted by compaction: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotDueSignal(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SnapshotEvery = 3
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendRecords(t, s, 0, 2)
	select {
	case <-s.SnapshotDue():
		t.Fatal("snapshot due after 2 of 3 appends")
	default:
	}
	appendRecords(t, s, 2, 1)
	select {
	case <-s.SnapshotDue():
	default:
		t.Fatal("snapshot not due after 3 appends")
	}
	upTo, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(upTo, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	// The snapshot reset the count: the signal needs 3 fresh appends.
	appendRecords(t, s, 3, 2)
	select {
	case <-s.SnapshotDue():
		t.Fatal("snapshot due 2 appends after a snapshot")
	default:
	}
	appendRecords(t, s, 5, 1)
	select {
	case <-s.SnapshotDue():
	default:
		t.Fatal("snapshot not due 3 appends after a snapshot")
	}
}

// TestRecoveryOfFreshAndMissingDir: the directory states a boot can
// meet before any record exists, and the previous layout, which is
// refused by name and left untouched.
func TestRecoveryOfFreshAndMissingDir(t *testing.T) {
	for _, tc := range []struct {
		name    string
		prepare func(t *testing.T, dir string)
		refused string // a name the refusal must carry; "" = plans fresh
	}{
		{name: "never created"},
		{name: "opened but never appended", prepare: func(t *testing.T, dir string) {
			s, err := Open(testOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "previous layout", refused: "seg-00000001.seal", prepare: func(t *testing.T, dir string) {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"seg-00000001.seal", "seg-00000002.active"} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(string(rec(1))+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			if tc.prepare != nil {
				tc.prepare(t, dir)
			}
			before := readDirFiles(t, dir)
			if tc.refused == "" {
				if len(before) != 0 {
					t.Fatalf("a store with no records left files behind: %v", keys(before))
				}
				r, lines := recoverAll(t, dir)
				if r.Report.Mode != "fresh" || len(lines) != 0 {
					t.Fatalf("mode=%q lines=%d, want fresh/0", r.Report.Mode, len(lines))
				}
			} else {
				_, perr := PlanRecovery(testOpts(dir))
				_, oerr := Open(testOpts(dir))
				for _, err := range []error{perr, oerr} {
					if err == nil || !strings.Contains(err.Error(), tc.refused) {
						t.Fatalf("previous layout not refused by name: %v", err)
					}
				}
			}
			if after := readDirFiles(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("directory changed: %v, was %v", after, before)
			}
		})
	}
}

// TestOpenNeverWritesExistingSegments: Open reads a directory listing
// and nothing else. Every file present before it stays byte-identical
// through Open, an append and Close, and the new records land in a
// segment numbered above every segment and snapshot boundary on disk.
func TestOpenNeverWritesExistingSegments(t *testing.T) {
	for _, tc := range []struct {
		name     string
		prepare  func(t *testing.T, dir string)
		wantNext uint64
		wantFrom int // first record the recovery replays
	}{
		{name: "sealed segments and a torn tail", wantNext: 4, wantFrom: 0, prepare: func(t *testing.T, dir string) {
			s, err := Open(testOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			appendRecords(t, s, 0, 30)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			appendBytes(t, lastSegment(t, dir).path, frame(string(rec(9999)))[:14])
		}},
		{name: "compaction left snapshots but no segment", wantNext: 10, wantFrom: 30, prepare: func(t *testing.T, dir string) {
			for _, upTo := range []uint64{7, 9} {
				if err := writeSnapshotFile(dir, upTo, []byte("{}"), testClock()); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.prepare(t, dir)
			before := readDirFiles(t, dir)
			ls, err := listDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(testOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			if got := readDirFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(before) {
				t.Fatal("Open changed the directory")
			}
			appendRecords(t, s, 30, 3)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			after := readDirFiles(t, dir)
			for name, b := range before {
				if after[name] != b {
					t.Errorf("%s changed across Open, append and Close", name)
				}
			}
			if next := ls.maxSeq() + 1; next != tc.wantNext {
				t.Fatalf("directory's highest sequence is %d, want %d", next-1, tc.wantNext-1)
			}
			if _, ok := after[filepath.Base(segmentPath(dir, tc.wantNext))]; !ok || len(after) != len(before)+1 {
				t.Fatalf("new records did not land in exactly segment %08d: %v", tc.wantNext, keys(after))
			}
			_, lines := recoverAll(t, dir)
			wantLines(t, lines, tc.wantFrom, 33-tc.wantFrom)
		})
	}
}

// corruptFile flips one byte. Offset -1 means "last byte".
func corruptFile(t *testing.T, path string, offset int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if offset < 0 {
		offset = int64(len(b)) - 1
	}
	b[offset] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// frame renders one record line through the writer's own framing.
func frame(payload string) string {
	var p [prefixLen]byte
	putPrefix(&p, []byte(payload))
	return string(p[:]) + payload + "\n"
}

// appendBytes appends raw bytes to a file, as a crash mid-write would
// leave them.
func appendBytes(t *testing.T, path, b string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func lastSegment(t *testing.T, dir string) segFile {
	t.Helper()
	ls, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.segs) == 0 {
		t.Fatal("no segment")
	}
	return ls.segs[len(ls.segs)-1]
}

// readDirFiles maps every file name in dir to its contents (empty for a
// directory that does not exist).
func readDirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return map[string]string{}
	}
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = string(b)
	}
	return files
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
