package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// prefixLen is the length of a record line's checksum prefix: 8
// lowercase hex digits of CRC-32/IEEE over the payload, then a space.
const prefixLen = 9

// putPrefix renders payload's checksum prefix into p. It is the one
// framing function: Append writes with it and verify checks with it.
func putPrefix(p *[prefixLen]byte, payload []byte) {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	hex.Encode(p[:8], sum[:])
	p[8] = ' '
}

// verify checks one complete line (newline included) and returns its
// payload, reporting false when the prefix is not exactly the payload's
// checksum prefix.
func verify(line []byte) ([]byte, bool) {
	if len(line) < prefixLen+1 {
		return nil, false
	}
	payload := line[prefixLen : len(line)-1]
	var want [prefixLen]byte
	putPrefix(&want, payload)
	return payload, bytes.Equal(line[:prefixLen], want[:])
}

// segFile is one segment file found in a store directory.
type segFile struct {
	seq  uint64
	path string
}

// snapFile is one snapshot file found in a store directory.
type snapFile struct {
	upTo uint64
	path string
}

// dirListing is a store directory's contents, each class ascending.
type dirListing struct {
	segs  []segFile
	snaps []snapFile
}

// maxSeq is the highest segment sequence or snapshot boundary present:
// the next segment must be numbered above it, or a snapshot would
// claim to cover records it never saw.
func (ls dirListing) maxSeq() uint64 {
	var m uint64
	if len(ls.segs) > 0 {
		m = ls.segs[len(ls.segs)-1].seq
	}
	if len(ls.snaps) > 0 && ls.snaps[len(ls.snaps)-1].upTo > m {
		m = ls.snaps[len(ls.snaps)-1].upTo
	}
	return m
}

// listDir scans a store directory. Unrecognized files are ignored (a
// crashed snapshot temp file, an editor backup). A directory holding
// segments in the previous layout (seg-*.seal, seg-*.active) is
// refused, naming them: this build neither reads nor migrates them.
func listDir(dir string) (dirListing, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return dirListing{}, nil
		}
		return dirListing{}, fmt.Errorf("store: read dir: %w", err)
	}
	var ls dirListing
	var previous []string
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		path := filepath.Join(dir, name)
		if seq, ok := parseSeq(name, "seg-", ".log"); ok {
			ls.segs = append(ls.segs, segFile{seq: seq, path: path})
		} else if upTo, ok := parseSeq(name, "snap-", ".snap"); ok {
			ls.snaps = append(ls.snaps, snapFile{upTo: upTo, path: path})
		} else if strings.HasPrefix(name, "seg-") && (strings.HasSuffix(name, ".seal") || strings.HasSuffix(name, ".active")) {
			previous = append(previous, name)
		}
	}
	if len(previous) > 0 {
		return dirListing{}, fmt.Errorf("store: %s holds segments in a previous layout this build does not read or migrate: %s",
			dir, strings.Join(previous, ", "))
	}
	sort.Slice(ls.segs, func(i, j int) bool { return ls.segs[i].seq < ls.segs[j].seq })
	sort.Slice(ls.snaps, func(i, j int) bool { return ls.snaps[i].upTo < ls.snaps[j].upTo })
	return ls, nil
}

// parseSeq reads the number in a prefix-NNNNNNNN-suffix file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return n, err == nil
}

// segScan is what readSegment learned about a segment file.
type segScan struct {
	// records counts lines whose checksum verified (all delivered).
	records int
	// bad counts complete lines skipped: a checksum or prefix that does
	// not verify, or a payload longer than the bound.
	bad int
	// tornBytes counts trailing bytes after the last newline — a
	// half-written record from a crash.
	tornBytes int64
}

// readSegment is the one reader of the record line format. It feeds
// fn the payload of each complete line whose checksum prefix verifies
// and counts every other line. Payloads longer than maxLine are
// counted without being buffered (the writer refuses them, so a huge
// line means corruption, and buffering it would let a corrupt file
// exhaust memory). Anything after the last newline is the torn tail.
// The payload handed to fn is only valid until fn returns; an error
// from fn stops the walk and is returned as is.
func readSegment(r io.Reader, maxLine int, fn func(payload []byte) error) (segScan, error) {
	var st segScan
	var cur []byte // the line being read, dropped once it outgrows the bound
	over := false
	br := bufio.NewReader(r)
	for {
		// ReadSlice contract: nil error means the chunk ends at the
		// newline (line complete); ErrBufferFull means more of the same
		// line follows; io.EOF means trailing bytes with no newline.
		chunk, rerr := br.ReadSlice('\n')
		st.tornBytes += int64(len(chunk))
		switch {
		case over:
		case len(cur)+len(chunk) > prefixLen+maxLine+1:
			over, cur = true, cur[:0]
		default:
			cur = append(cur, chunk...)
		}
		switch rerr {
		case bufio.ErrBufferFull:
		case nil:
			if payload, ok := verify(cur); ok {
				st.records++
				if err := fn(payload); err != nil {
					return st, err
				}
			} else {
				st.bad++
			}
			cur, over, st.tornBytes = cur[:0], false, 0
		case io.EOF:
			return st, nil
		default:
			return st, fmt.Errorf("store: read segment: %w", rerr)
		}
	}
}
