package store

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"busprobe/internal/clock"
)

func testClock() clock.Clock {
	return clock.NewFake(time.Unix(1700000000, 0), time.Millisecond)
}

func testOpts(dir string) Options {
	return Options{Dir: dir, SegmentBytes: 256, MaxRecordBytes: 4096, Clock: testClock()}
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

// recover replays the directory, returning the plan and the replayed
// lines in order.
func recoverAll(t *testing.T, dir string) (*Recovery, []string) {
	t.Helper()
	r, err := PlanRecovery(testOpts(dir))
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
	appendRecords(t, s, 0, 100) // 15-byte lines, 256-byte segments → many rolls
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.LastSealed() == 0 {
		t.Fatal("expected at least one sealed segment")
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

func TestTornTailSkippedAndTruncatedOnReopen(t *testing.T) {
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
	active := findActive(t, dir)
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"rec":9999`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, lines := recoverAll(t, dir)
	wantLines(t, lines, 0, 10)
	if !r.Report.TornTail {
		t.Fatalf("torn tail not reported: %+v", r.Report)
	}
	if r.Report.RecordsSkipped != 1 {
		t.Fatalf("skipped = %d, want 1", r.Report.RecordsSkipped)
	}
	// Reopen: the torn bytes are truncated and appends continue cleanly.
	s2, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s2, 10, 5)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	r2, lines2 := recoverAll(t, dir)
	wantLines(t, lines2, 0, 15)
	if r2.Report.TornTail || r2.Report.RecordsSkipped != 0 {
		t.Fatalf("reopen did not truncate the torn tail: %+v", r2.Report)
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
	for _, sf := range ls.sealed {
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
	for _, sf := range ls.sealed {
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
	opts.MaxRecordBytes = 64
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := string(rec(1)) + "\n" + strings.Repeat("x", 200) + "\n" + string(rec(2)) + "\n"
	if err := os.WriteFile(activePath(dir, 1), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := PlanRecovery(opts)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	if err := r.Replay(context.Background(), func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("replayed %d, want 2 (oversized line skipped)", len(lines))
	}
	if r.Report.RecordsSkipped != 1 {
		t.Fatalf("skipped = %d, want 1", r.Report.RecordsSkipped)
	}
	// The writer refuses records it could not replay.
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(context.Background(), []byte(strings.Repeat("y", 100))); err == nil {
		t.Fatal("oversized append accepted")
	}
	// Open adopted the segment through the same bounded reader: the
	// over-bound line was checksummed without being buffered, so the
	// running CRC and length cover every byte on disk and the footer
	// the next Seal writes verifies.
	appendRecords(t, s, 3, 1)
	if _, err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := PlanRecovery(opts)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	if err := r2.Replay(context.Background(), func([]byte) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replayed != 3 || r2.Report.RecordsSkipped != 1 || r2.Report.CorruptSegments != 0 || r2.Report.SealedSegments != 1 {
		t.Fatalf("sealed after adopting an oversized line: replayed %d, report %+v", replayed, r2.Report)
	}
}

// TestReadSegment pins the one reader of the segment line format.
func TestReadSegment(t *testing.T) {
	const maxLine = 96 // above a footer line, far below a bufio chunk
	footer := func(body string) string {
		return string(sealFooter{Seal: sealMagic, Records: strings.Count(body, "\n"), Bytes: int64(len(body)), CRC32: crc32.ChecksumIEEE([]byte(body))}.encode()) + "\n"
	}
	a, b := string(rec(1))+"\n", string(rec(2))+"\n"
	exact := strings.Repeat("e", maxLine) + "\n"
	over := strings.Repeat("o", maxLine+1) + "\n"
	giant := strings.Repeat("g", 3*4096+17) + "\n" // spans several bufio chunks
	strip := func(lines ...string) []string {
		for i := range lines {
			lines[i] = strings.TrimSuffix(lines[i], "\n")
		}
		return lines
	}
	cases := []struct {
		name      string
		in        string
		lines     []string // delivered, in order
		good      string   // the prefix crc / goodBytes must cover
		records   int
		oversized int
		torn      int64
		sealed    bool
	}{
		{name: "empty file"},
		{name: "records only", in: a + b, lines: strip(a, b), good: a + b, records: 2},
		{name: "records + footer", in: a + b + footer(a+b), lines: strip(a, b), good: a + b, records: 2, sealed: true},
		{name: "footer alone", in: footer(""), sealed: true},
		{name: "footer-shaped line mid-file is a record", in: a + footer(a) + b,
			lines: strip(a, footer(a), b), good: a + footer(a) + b, records: 3},
		{name: "footer then torn bytes is a record", in: a + footer(a) + "{", lines: strip(a, footer(a)),
			good: a + footer(a), records: 2, torn: 1},
		{name: "torn tail", in: a + b + `{"rec":9`, lines: strip(a, b), good: a + b, records: 2, torn: 8},
		{name: "only a torn tail", in: `{"rec"`, torn: 6},
		{name: "line of exactly maxLine", in: a + exact + b, lines: strip(a, exact, b), good: a + exact + b, records: 3},
		{name: "line of maxLine+1", in: a + over + b, lines: strip(a, b), good: a + over + b, records: 3, oversized: 1},
		{name: "oversized line across chunks", in: a + giant + b, lines: strip(a, b), good: a + giant + b, records: 3, oversized: 1},
		{name: "oversized final line before footer", in: a + giant + footer(a+giant), lines: strip(a),
			good: a + giant, records: 2, oversized: 1, sealed: true},
		{name: "oversized torn tail", in: a + b + strings.TrimSuffix(giant, "\n"), lines: strip(a, b),
			good: a + b, records: 2, torn: int64(len(giant) - 1)},
		{name: "empty lines are lines", in: a + "\n" + b, lines: strip(a, "\n", b), good: a + "\n" + b, records: 3},
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
			if st.crc != crc32.ChecksumIEEE([]byte(tc.good)) || st.goodBytes != int64(len(tc.good)) {
				t.Errorf("crc %08x over %d bytes, want %08x over %d", st.crc, st.goodBytes, crc32.ChecksumIEEE([]byte(tc.good)), len(tc.good))
			}
			if st.records != tc.records || st.oversized != tc.oversized || st.tornBytes != tc.torn || st.sealed != tc.sealed {
				t.Errorf("records %d oversized %d torn %d sealed %v, want %d %d %d %v",
					st.records, st.oversized, st.tornBytes, st.sealed, tc.records, tc.oversized, tc.torn, tc.sealed)
			}
			if tc.sealed && (st.footer.CRC32 != st.crc || st.footer.Bytes != st.goodBytes) {
				t.Errorf("footer %+v does not verify against crc %08x / %d bytes", st.footer, st.crc, st.goodBytes)
			}
			// Scanning with no callback (the adopt path) learns the same.
			if bare, err := readSegment(strings.NewReader(tc.in), maxLine, nil); err != nil || bare != st {
				t.Errorf("scan-only pass = %+v (err %v), want %+v", bare, err, st)
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

func TestAdoptFinishesInterruptedSeal(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A crash between footer write and rename leaves a .active file that
	// is internally sealed. Build one by hand.
	var body []byte
	for i := 0; i < 5; i++ {
		body = append(body, rec(i)...)
		body = append(body, '\n')
	}
	footer := sealFooter{Seal: sealMagic, Records: 5, Bytes: int64(len(body)), CRC32: crc32.ChecksumIEEE(body)}
	content := append(body, footer.encode()...)
	content = append(content, '\n')
	if err := os.WriteFile(activePath(dir, 3), content, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, s, 5, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sealedPath(dir, 3)); err != nil {
		t.Fatalf("interrupted seal not finished: %v", err)
	}
	r, lines := recoverAll(t, dir)
	wantLines(t, lines, 0, 8)
	if r.Report.CorruptSegments != 0 {
		t.Fatalf("finished seal reads as corrupt: %+v", r.Report)
	}
}

// TestReplaySurvivesOpenFinishingPendingSeal: a plan built before Open
// normalizes the directory must still replay a fully-sealed-but-
// unrenamed active segment after Open finishes the seal (renaming
// .active → .seal out from under the plan). Losing that segment would
// silently drop acked records, and the next compaction would make the
// loss permanent.
func TestReplaySurvivesOpenFinishingPendingSeal(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var body []byte
	for i := 0; i < 5; i++ {
		body = append(body, rec(i)...)
		body = append(body, '\n')
	}
	footer := sealFooter{Seal: sealMagic, Records: 5, Bytes: int64(len(body)), CRC32: crc32.ChecksumIEEE(body)}
	content := append(body, footer.encode()...)
	content = append(content, '\n')
	if err := os.WriteFile(activePath(dir, 3), content, 0o644); err != nil {
		t.Fatal(err)
	}
	// Plan first — the plan's tail references seg-3.active.
	r, err := PlanRecovery(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Open finishes the pending seal: seg-3.active becomes seg-3.seal.
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sealedPath(dir, 3)); err != nil {
		t.Fatalf("open did not finish the pending seal: %v", err)
	}
	var lines []string
	if err := r.Replay(context.Background(), func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantLines(t, lines, 0, 5)
	if r.Report.CorruptSegments != 0 {
		t.Fatalf("renamed segment reported corrupt: %+v", r.Report)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenedVirginDirPlansFresh: recovery paths open the store before
// planning, so a virgin directory holds one empty active segment by
// plan time — that is still a fresh store, not a full replay.
func TestOpenedVirginDirPlansFresh(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "fresh" || len(lines) != 0 {
		t.Fatalf("mode=%q lines=%d, want fresh/0", r.Report.Mode, len(lines))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
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
	if got := s.AppendsSinceSnapshot(); got != 0 {
		t.Fatalf("appends since snapshot = %d, want 0", got)
	}
}

func TestRecoveryOfFreshAndMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never-created")
	r, lines := recoverAll(t, dir)
	if r.Report.Mode != "fresh" || len(lines) != 0 {
		t.Fatalf("mode=%q lines=%d, want fresh/0", r.Report.Mode, len(lines))
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

func findActive(t *testing.T, dir string) string {
	t.Helper()
	ls, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ls.active == nil {
		t.Fatal("no active segment")
	}
	return ls.active.path
}
