package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
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
		if _, err := f.Write(append(hb, '\n')); err != nil {
			return err
		}
		if _, err := f.Write(state); err != nil {
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
	b, err := os.ReadFile(path)
	if err != nil {
		return snapHeader{}, nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	line, state, ok := bytes.Cut(b, []byte{'\n'})
	if !ok {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot header: no newline in %d bytes", len(b))
	}
	var hdr snapHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot header: %w", err)
	}
	if hdr.Snap != snapMagic {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot header: bad magic %d", hdr.Snap)
	}
	// The header line carries no checksum of its own: bound the size it
	// claims by the bytes actually behind it.
	if hdr.StateBytes < 0 || hdr.StateBytes > int64(len(state)) {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot header: state size %d, file holds %d", hdr.StateBytes, len(state))
	}
	state = state[:hdr.StateBytes]
	if got := crc32.ChecksumIEEE(state); got != hdr.StateCRC32 {
		return snapHeader{}, nil, fmt.Errorf("store: snapshot checksum mismatch: got %08x want %08x", got, hdr.StateCRC32)
	}
	return hdr, state, nil
}
