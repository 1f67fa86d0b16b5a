// Package store is the log-structured durable storage engine behind
// the server's persistence: an append-only record log whose restart
// cost is bounded by recent activity instead of lifetime ingest.
//
// On disk, a store directory holds three kinds of files:
//
//   - seg-NNNNNNNN.active — the one active segment, a JSON-lines record
//     log being appended. At most one exists; a crash can tear its last
//     line, which recovery skips.
//   - seg-NNNNNNNN.seal — sealed segments: the same record lines plus a
//     final footer line carrying a CRC-32 over every byte before it.
//     Sealed segments are immutable; recovery verifies the checksum.
//   - snap-NNNNNNNN.snap — snapshots: an opaque state blob (the
//     server's exported pipeline state) covering every record in
//     segments with sequence <= NNNNNNNN, checksummed and written
//     atomically (temp file + rename).
//
// The active segment rolls into a sealed one when it crosses the size
// threshold. A snapshot is only ever taken at a segment boundary — the
// writer seals the active segment first — so "snapshot upTo K" and
// "replay segments > K" partition the record stream exactly.
// Compaction deletes segments fully covered by the *previous* retained
// snapshot (the newest two snapshots are kept), so a corrupt newest
// snapshot can still fall back one snapshot and find its tail intact.
//
// Recovery (PlanRecovery + Replay) climbs a ladder: newest intact snapshot
// plus its contiguous tail; else the previous snapshot; else a full
// replay of every segment that still exists. Torn active tails and
// individually corrupt lines are skipped and counted, never fatal.
package store

import (
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"busprobe/internal/clock"
)

// DefaultSegmentBytes is the roll threshold for the active segment.
const DefaultSegmentBytes = 4 << 20

// DefaultMaxRecordBytes bounds one record line; longer lines are
// skipped at replay (they cannot be valid records) and refused at
// append.
const DefaultMaxRecordBytes = 4 << 20

// Options configures a store.
type Options struct {
	// Dir is the store directory, created if needed.
	Dir string
	// SegmentBytes is the active-segment roll threshold
	// (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// MaxRecordBytes bounds one record line (0 = DefaultMaxRecordBytes).
	MaxRecordBytes int
	// SnapshotEvery, when > 0, arms the snapshot signal: after that many
	// records append since the last snapshot, SnapshotDue fires.
	SnapshotEvery int
	// Clock stamps snapshot metadata (nil = clock.Wall).
	Clock clock.Clock
}

// withDefaults fills the zero values in.
func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = DefaultMaxRecordBytes
	}
	if o.Clock == nil {
		o.Clock = clock.Wall{}
	}
	return o
}

// Store is the append side of the engine. Safe for concurrent use.
type Store struct {
	opts Options

	mu           sync.Mutex
	f            *os.File    //lint:guardedby mu
	w            *lineWriter //lint:guardedby mu
	activeSeq    uint64      //lint:guardedby mu
	activeBytes  int64       //lint:guardedby mu
	activeRecs   int         //lint:guardedby mu
	activeCRC    uint32      //lint:guardedby mu
	lastSealed   uint64      //lint:guardedby mu
	sinceSnap    int         //lint:guardedby mu
	lastSnapUpTo uint64      //lint:guardedby mu
	closed       bool        //lint:guardedby mu

	// snapDue is the snapshot signal (buffered 1): armed by Options.
	// SnapshotEvery, fired under mu, drained by the snapshotter.
	snapDue chan struct{}
}

// Open opens (creating if needed) a store directory for appending.
// A pre-existing active segment is adopted: its torn final line, if
// any, is truncated away (the record was never durable — recovery has
// already skipped it), and a fully sealed-but-unrenamed active (crash
// between footer and rename) is finished into a sealed segment.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: no directory configured")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ls, err := listDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{opts: opts, snapDue: make(chan struct{}, 1)}
	s.lastSealed = ls.maxSealed()
	if len(ls.snaps) > 0 {
		s.lastSnapUpTo = ls.snaps[len(ls.snaps)-1].upTo
	}
	nextSeq := ls.maxSeq() + 1
	if ls.active != nil {
		adopted, err := s.adoptActive(*ls.active)
		if err != nil {
			return nil, err
		}
		if adopted {
			return s, nil
		}
		// The active was already sealed (crash mid-seal, now finished);
		// fall through and start the next one.
		nextSeq = ls.active.seq + 1
		if ls.active.seq > s.lastSealed {
			s.lastSealed = ls.active.seq
		}
	}
	if err := s.openActiveLocked(nextSeq); err != nil {
		return nil, err
	}
	return s, nil
}

// adoptActive takes over a pre-existing active segment, reporting true
// when it stays active (false when it turned out to be fully sealed and
// was finished into a sealed file).
func (s *Store) adoptActive(sf segFile) (bool, error) {
	f, err := os.OpenFile(sf.path, os.O_RDWR, 0o644)
	if err != nil {
		return false, fmt.Errorf("store: reopen active: %w", err)
	}
	st, err := readSegment(f, s.opts.MaxRecordBytes, nil)
	if err != nil {
		cerr := f.Close()
		return false, fmt.Errorf("%w (close: %v)", err, cerr)
	}
	if st.sealed {
		// The footer is already on disk; only the rename was lost.
		if err := f.Close(); err != nil {
			return false, fmt.Errorf("store: finish seal: %w", err)
		}
		if err := os.Rename(sf.path, sealedPath(s.opts.Dir, sf.seq)); err != nil {
			return false, fmt.Errorf("store: finish seal: %w", err)
		}
		return false, nil
	}
	if st.tornBytes > 0 {
		if err := f.Truncate(st.goodBytes); err != nil {
			cerr := f.Close()
			return false, fmt.Errorf("store: trim torn tail: %w (close: %v)", err, cerr)
		}
	}
	if _, err := f.Seek(st.goodBytes, 0); err != nil {
		cerr := f.Close()
		return false, fmt.Errorf("store: seek active: %w (close: %v)", err, cerr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f = f
	s.w = newLineWriter(f)
	s.activeSeq = sf.seq
	s.activeBytes = st.goodBytes
	s.activeRecs = st.records
	s.activeCRC = st.crc
	return true, nil
}

// openActiveLocked creates the active segment file for seq. Callers
// hold mu or have exclusive access (Open).
func (s *Store) openActiveLocked(seq uint64) error {
	path := activePath(s.opts.Dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	s.f = f
	s.w = newLineWriter(f)
	s.activeSeq = seq
	s.activeBytes = 0
	s.activeRecs = 0
	s.activeCRC = 0
	return nil
}

// Append writes one record line durably (flushed to the OS before
// returning) and rolls the active segment when it crosses the size
// threshold. The record must be a single line (no newlines) and fit
// MaxRecordBytes. A canceled context fails the append before anything
// reaches the file.
func (s *Store) Append(ctx context.Context, rec []byte) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if len(rec) >= s.opts.MaxRecordBytes {
		return fmt.Errorf("store: record of %d bytes exceeds the %d-byte line bound", len(rec), s.opts.MaxRecordBytes)
	}
	for _, b := range rec {
		if b == '\n' {
			return fmt.Errorf("store: record contains a newline")
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append to closed store")
	}
	n, err := s.w.writeLine(rec)
	if err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	// Hand the line to the OS before acking: an acked record must
	// survive SIGKILL (the journal this store replaces flushed per
	// append too). Power-cut durability is the snapshot's job — those
	// are fsynced before rename.
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.activeCRC = crc32.Update(s.activeCRC, crc32.IEEETable, rec)
	s.activeCRC = crc32.Update(s.activeCRC, crc32.IEEETable, []byte{'\n'})
	s.activeBytes += int64(n)
	s.activeRecs++
	s.sinceSnap++
	if s.activeBytes >= s.opts.SegmentBytes {
		if err := s.sealLocked(); err != nil {
			return err
		}
	}
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		select { //lint:allow lockorder non-blocking send (default case) on a 1-buffered signal channel; cannot block under mu
		case s.snapDue <- struct{}{}:
		default:
		}
	}
	return nil
}

// SnapshotDue signals when SnapshotEvery records have appended since
// the last snapshot. The channel is buffered and level-triggered:
// drain one token, take a snapshot, repeat.
func (s *Store) SnapshotDue() <-chan struct{} { return s.snapDue }

// AppendsSinceSnapshot reports records appended since the last
// WriteSnapshot.
func (s *Store) AppendsSinceSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinceSnap
}

// Seal closes the active segment into a sealed, checksummed one (a
// no-op when the active segment holds no records) and reports the
// highest sealed sequence — the boundary a snapshot taken now covers.
func (s *Store) Seal() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: seal on closed store")
	}
	if s.activeRecs == 0 {
		return s.lastSealed, nil
	}
	if err := s.sealLocked(); err != nil {
		return 0, err
	}
	return s.lastSealed, nil
}

// sealLocked writes the footer, syncs, renames the active segment to
// its sealed name, and opens the next active segment.
func (s *Store) sealLocked() error {
	seq := s.activeSeq
	footer := sealFooter{Seal: sealMagic, Records: s.activeRecs, Bytes: s.activeBytes, CRC32: s.activeCRC}
	if _, err := s.w.writeLine(footer.encode()); err != nil {
		return fmt.Errorf("store: seal segment %d: %w", seq, err)
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: seal segment %d: %w", seq, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: sync segment %d: %w", seq, err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("store: close segment %d: %w", seq, err)
	}
	if err := os.Rename(activePath(s.opts.Dir, seq), sealedPath(s.opts.Dir, seq)); err != nil {
		return fmt.Errorf("store: seal segment %d: %w", seq, err)
	}
	s.lastSealed = seq
	return s.openActiveLocked(seq + 1)
}

// WriteSnapshot persists one opaque state blob covering every record in
// segments with sequence <= upTo (normally the value Seal just
// returned). The write is atomic: temp file, sync, rename. It also
// resets the snapshot-due counter.
func (s *Store) WriteSnapshot(upTo uint64, state []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: snapshot on closed store")
	}
	clk := s.opts.Clock
	dir := s.opts.Dir
	s.mu.Unlock()
	if err := writeSnapshotFile(dir, upTo, state, clk); err != nil {
		return err
	}
	s.mu.Lock()
	s.sinceSnap = 0
	if upTo > s.lastSnapUpTo {
		s.lastSnapUpTo = upTo
	}
	s.mu.Unlock()
	return nil
}

// Compact deletes sealed segments fully covered by the previous
// retained snapshot and snapshots older than it — including corrupt
// snapshot files behind that boundary, which no recovery will ever
// use and which would otherwise accumulate forever. The newest two
// valid snapshots are kept so recovery can fall back one snapshot and
// still find that snapshot's tail intact. Concurrent compactions (the
// snapshotter racing a shutdown checkpoint) may each try to remove
// the same file; a remove that loses that race is a success, not an
// error. Returns the number of segment files removed.
func (s *Store) Compact() (int, error) {
	s.mu.Lock()
	dir := s.opts.Dir
	s.mu.Unlock()
	ls, err := listDir(dir)
	if err != nil {
		return 0, err
	}
	// Only checksum-valid snapshots count toward the retained pair:
	// compacting up to a corrupt snapshot would delete the sole copy
	// of its records.
	var valid, invalid []snapFile
	for _, sf := range ls.snaps {
		if _, _, err := readSnapshotFile(sf.path); err == nil {
			valid = append(valid, sf)
		} else {
			invalid = append(invalid, sf)
		}
	}
	if len(valid) < 2 {
		return 0, nil
	}
	keepFrom := valid[len(valid)-2] // previous retained snapshot
	removed := 0
	for _, sf := range ls.sealed {
		if sf.seq <= keepFrom.upTo {
			if err := removeTolerant(sf.path); err != nil {
				return removed, err
			}
			removed++
		}
	}
	for _, sf := range valid[:len(valid)-2] {
		if err := removeTolerant(sf.path); err != nil {
			return removed, err
		}
	}
	// Corrupt snapshots behind the retained boundary are dead weight:
	// the ladder skips them and their covered records live on in the
	// retained snapshots. Newer corrupt ones stay — deleting the
	// newest snapshot's file out from under a concurrent writer that
	// is mid-rename would be needless aggression.
	for _, sf := range invalid {
		if sf.upTo < keepFrom.upTo {
			if err := removeTolerant(sf.path); err != nil {
				return removed, err
			}
		}
	}
	return removed, nil
}

// removeTolerant removes a file, treating "already gone" as success so
// concurrent compactions do not fail each other.
func removeTolerant(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// LastSealed reports the highest sealed segment sequence.
func (s *Store) LastSealed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSealed
}

// Close flushes and closes the active segment. The store cannot be
// used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.w.Flush(); err != nil {
		cerr := s.f.Close()
		return fmt.Errorf("store: close: %w (close: %v)", err, cerr)
	}
	return s.f.Close()
}

// activePath / sealedPath / snapshotPath name the store's files.
func activePath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.active", seq))
}

func sealedPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.seal", seq))
}

func snapshotPath(dir string, upTo uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", upTo))
}
