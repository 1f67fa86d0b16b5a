package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"busprobe/internal/clock"
)

// snapMagic identifies a snapshot file's header line.
const snapMagic = 1

// snapHeader is the first line of a snapshot file. The StateBytes
// bytes that follow the header's newline are the opaque state blob;
// StateCRC32 (IEEE) covers exactly those bytes.
type snapHeader struct {
	Snap            int    `json:"busprobeSnap"`
	UpTo            uint64 `json:"upTo"`
	WrittenUnixNano int64  `json:"writtenUnixNano"`
	StateBytes      int64  `json:"stateBytes"`
	StateCRC32      uint32 `json:"stateCRC32"`
}

// writeSnapshotFile persists one snapshot atomically: temp file in the
// same directory, sync, rename onto the final name. A crash at any
// point leaves either no snapshot or a complete one — never a partial
// file under the snapshot name (leftover temp files are ignored by
// listDir and overwritten by the next attempt).
func writeSnapshotFile(dir string, upTo uint64, state []byte, clk clock.Clock) error {
	hdr := snapHeader{
		Snap:            snapMagic,
		UpTo:            upTo,
		WrittenUnixNano: clk.Now().UnixNano(),
		StateBytes:      int64(len(state)),
		StateCRC32:      crc32.ChecksumIEEE(state),
	}
	hb, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("store: encode snapshot header: %w", err)
	}
	final := snapshotPath(dir, upTo)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	werr := func() error {
		bw := bufio.NewWriter(f)
		if _, err := bw.Write(hb); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		if _, err := bw.Write(state); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp) //lint:allow errcheckio best-effort cleanup of a temp file the next attempt truncates anyway
		return fmt.Errorf("store: write snapshot: %w", werr)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	return nil
}

// readSnapshotFile loads and verifies one snapshot, returning the
// header and the state blob. Any structural defect — unparsable
// header, short state, checksum mismatch — is an error, which the
// recovery ladder treats as "this snapshot does not exist".
func readSnapshotFile(path string) (snapHeader, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return snapHeader{}, nil, fmt.Errorf("store: open snapshot: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot header: %w", err)
	}
	var hdr snapHeader
	if err := json.Unmarshal(bytes.TrimSuffix(line, []byte("\n")), &hdr); err != nil {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot header: %w", err)
	}
	if hdr.Snap != snapMagic {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot header: bad magic %d", hdr.Snap)
	}
	// The header line carries no checksum of its own: bound the size it
	// claims by the bytes actually behind it before allocating.
	fi, err := f.Stat()
	if err != nil {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot header: %w", err)
	}
	if rest := fi.Size() - int64(len(line)); hdr.StateBytes < 0 || hdr.StateBytes > rest {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot header: state size %d, file holds %d", hdr.StateBytes, rest)
	}
	state := make([]byte, hdr.StateBytes)
	if _, err := io.ReadFull(br, state); err != nil {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot state: %w", err)
	}
	if got := crc32.ChecksumIEEE(state); got != hdr.StateCRC32 {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot checksum mismatch: got %08x want %08x", got, hdr.StateCRC32)
	}
	return hdr, state, nil
}
