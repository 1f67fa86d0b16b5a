// Package store is the log-structured durable storage engine behind
// the server's persistence: an append-only record log whose restart
// cost is bounded by recent activity instead of lifetime ingest.
//
// On disk, a store directory holds two kinds of files:
//
//   - seg-NNNNNNNN.log — segments of record lines. Every line checks
//     itself: 8 lowercase hex digits of CRC-32/IEEE over the payload, a
//     space, the payload and a newline. A segment is immutable once its
//     writer stops: sealing is fsync + close, and the first append after
//     Open or after a seal creates the next segment, numbered above every
//     segment and snapshot boundary on disk. A crash can tear a
//     segment's final line; recovery skips and reports it for as long as
//     the segment exists.
//   - snap-NNNNNNNN.snap — snapshots: an opaque state blob (the
//     server's exported pipeline state) covering every record in
//     segments with sequence <= NNNNNNNN, checksummed and written
//     atomically (temp file + rename).
//
// Open creates the directory and nothing else: it never opens, reads,
// truncates or creates a segment. A segment seals when it crosses the
// size threshold. A snapshot is only ever taken at a segment boundary
// — the writer seals first — so "snapshot upTo K" and "replay segments
// > K" partition the record stream exactly. Compaction deletes segments
// fully covered by the *previous* retained snapshot (the newest two
// are kept), so a corrupt newest snapshot can still fall back one
// snapshot and find its tail intact. A directory in the previous
// segment layout is refused by name (listDir), not migrated.
//
// Recovery (PlanRecovery + Replay) climbs a ladder: newest intact snapshot
// plus its contiguous tail; else the previous snapshot; else a full
// replay of every segment that still exists. Torn tails and lines that
// fail their checksum are skipped and counted, never fatal.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"busprobe/internal/clock"
)

// DefaultSegmentBytes is the seal threshold for the segment being
// written.
const DefaultSegmentBytes = 4 << 20

// MaxRecordBytes bounds one record line; longer lines are skipped at
// replay (they cannot be valid records) and refused at append with
// ErrRecordTooLarge.
const MaxRecordBytes = 4 << 20

// ErrRecordTooLarge marks an append refused because the record reaches
// MaxRecordBytes: retrying the same record fails the same way.
var ErrRecordTooLarge = errors.New("store: record exceeds the line bound")

// Options configures a store.
type Options struct {
	// Dir is the store directory, created if needed.
	Dir string
	// SegmentBytes is the seal threshold for the segment being written
	// (0 = DefaultSegmentBytes).
	SegmentBytes int64
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
	if o.Clock == nil {
		o.Clock = clock.Wall{}
	}
	return o
}

// Store is the append side of the engine. Safe for concurrent use.
type Store struct {
	opts Options

	mu sync.Mutex
	// f is the segment being written, nil until the first append after
	// Open or a seal. seq is its sequence — with f nil, the highest
	// sequence sealed or found on disk, the boundary Seal reports. line
	// is the buffer each append frames its record into, so the whole
	// line reaches the OS in one write.
	f         *os.File //lint:guardedby mu
	seq       uint64   //lint:guardedby mu
	segBytes  int64    //lint:guardedby mu
	line      []byte   //lint:guardedby mu
	sinceSnap int      //lint:guardedby mu
	closed    bool     //lint:guardedby mu

	// snapDue is the snapshot signal (buffered 1): armed by Options.
	// SnapshotEvery, fired under mu, drained by the snapshotter.
	snapDue chan struct{}
}

// Open opens a store directory for appending, creating the directory
// if needed. It reads only the directory listing, to number the next
// segment; no file is created until the first Append.
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
	return &Store{opts: opts, seq: ls.maxSeq(), snapDue: make(chan struct{}, 1)}, nil
}

// Append writes one record line durably (one write to the OS before
// returning), creating the next segment first when none is open, and
// seals the segment when it crosses the size threshold. The record must
// be a single line (no newlines) and fit MaxRecordBytes. A canceled
// context fails the append before anything reaches the file.
func (s *Store) Append(ctx context.Context, rec []byte) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if len(rec) >= MaxRecordBytes {
		return fmt.Errorf("%w: %d bytes, bound %d", ErrRecordTooLarge, len(rec), MaxRecordBytes)
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
	if s.f == nil {
		f, err := os.OpenFile(segmentPath(s.opts.Dir, s.seq+1), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("store: create segment: %w", err)
		}
		s.f, s.seq, s.segBytes = f, s.seq+1, 0
	}
	var prefix [prefixLen]byte
	putPrefix(&prefix, rec)
	s.line = append(append(append(s.line[:0], prefix[:]...), rec...), '\n')
	// Hand the whole line to the OS before acking: an acked record must
	// survive SIGKILL. Power-cut durability is the seal's and the
	// snapshot's job — both fsync.
	if _, err := s.f.Write(s.line); err != nil {
		// A short write leaves a torn line behind, as a crash would:
		// abandon the segment so the next record starts clean in a new one.
		cerr := s.f.Close()
		s.f = nil
		return fmt.Errorf("store: append: %w (close: %v)", err, cerr)
	}
	s.segBytes += int64(len(s.line))
	s.sinceSnap++
	if s.segBytes >= s.opts.SegmentBytes {
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

// Seal makes the segment being written immutable (a no-op when none is
// open) and reports the highest sealed sequence — the boundary a
// snapshot taken now covers.
func (s *Store) Seal() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: seal on closed store")
	}
	if err := s.sealLocked(); err != nil {
		return 0, err
	}
	return s.seq, nil
}

// sealLocked fsyncs and closes the segment being written; the next
// append creates its successor.
func (s *Store) sealLocked() error {
	f := s.f
	if f == nil {
		return nil
	}
	s.f = nil
	if err := f.Sync(); err != nil {
		cerr := f.Close()
		return fmt.Errorf("store: sync segment %d: %w (close: %v)", s.seq, err, cerr)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close segment %d: %w", s.seq, err)
	}
	return nil
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
	s.mu.Unlock()
	return nil
}

// Compact deletes segments fully covered by the previous retained
// snapshot and snapshots older than it — including corrupt
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
	for _, sf := range ls.segs {
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

// Close closes the segment being written (every append already reached
// the OS). The store cannot be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.f
	s.f, s.closed = nil, true
	if f == nil {
		return nil
	}
	return f.Close()
}

// segmentPath / snapshotPath name the store's files.
func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.log", seq))
}

func snapshotPath(dir string, upTo uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", upTo))
}
