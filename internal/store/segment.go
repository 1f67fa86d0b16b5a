package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// sealMagic identifies a segment's footer line. A record line never
// starts with this key, so the footer is unambiguous.
const sealMagic = 1

// sealFooter is the final line of a sealed segment. CRC32 (IEEE)
// covers the first Bytes bytes of the file — every record line
// including its newline, and nothing of the footer itself.
type sealFooter struct {
	Seal    int    `json:"busprobeSeal"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	CRC32   uint32 `json:"crc32"`
}

// encode renders the footer as its on-disk line (sans newline).
func (sf sealFooter) encode() []byte {
	b, err := json.Marshal(sf)
	if err != nil {
		// A struct of ints cannot fail to marshal.
		panic(fmt.Sprintf("store: encode seal footer: %v", err))
	}
	return b
}

// parseFooter reports whether line is a seal footer.
func parseFooter(line []byte) (sealFooter, bool) {
	if !bytes.Contains(line, []byte(`"busprobeSeal"`)) {
		return sealFooter{}, false
	}
	var sf sealFooter
	if err := json.Unmarshal(line, &sf); err != nil || sf.Seal != sealMagic {
		return sealFooter{}, false
	}
	return sf, true
}

// lineWriter buffers line appends to a file.
type lineWriter struct {
	bw *bufio.Writer
}

func newLineWriter(w io.Writer) *lineWriter {
	return &lineWriter{bw: bufio.NewWriter(w)}
}

// writeLine appends one record plus newline and flushes, reporting the
// bytes written. A short write surfaces as an error.
func (lw *lineWriter) writeLine(rec []byte) (int, error) {
	if _, err := lw.bw.Write(rec); err != nil {
		return 0, err
	}
	if err := lw.bw.WriteByte('\n'); err != nil {
		return 0, err
	}
	if err := lw.bw.Flush(); err != nil {
		return 0, err
	}
	return len(rec) + 1, nil
}

func (lw *lineWriter) Flush() error { return lw.bw.Flush() }

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
	sealed []segFile
	active *segFile
	snaps  []snapFile
}

func (ls dirListing) maxSealed() uint64 {
	if len(ls.sealed) == 0 {
		return 0
	}
	return ls.sealed[len(ls.sealed)-1].seq
}

func (ls dirListing) maxSeq() uint64 {
	m := ls.maxSealed()
	if ls.active != nil && ls.active.seq > m {
		m = ls.active.seq
	}
	return m
}

// listDir scans a store directory. Unrecognized files are ignored (a
// crashed snapshot temp file, an editor backup). Multiple .active
// files — impossible from this writer, conceivable from a botched
// copy — keep only the newest active; older ones are treated as sealed
// segments missing their footer (replay tolerates that).
func listDir(dir string) (dirListing, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return dirListing{}, nil
		}
		return dirListing{}, fmt.Errorf("store: read dir: %w", err)
	}
	var ls dirListing
	var actives []segFile
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seal"):
			if seq, ok := parseSeq(name, "seg-", ".seal"); ok {
				ls.sealed = append(ls.sealed, segFile{seq: seq, path: path})
			}
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".active"):
			if seq, ok := parseSeq(name, "seg-", ".active"); ok {
				actives = append(actives, segFile{seq: seq, path: path})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if upTo, ok := parseSeq(name, "snap-", ".snap"); ok {
				ls.snaps = append(ls.snaps, snapFile{upTo: upTo, path: path})
			}
		}
	}
	sort.Slice(ls.sealed, func(i, j int) bool { return ls.sealed[i].seq < ls.sealed[j].seq })
	sort.Slice(ls.snaps, func(i, j int) bool { return ls.snaps[i].upTo < ls.snaps[j].upTo })
	sort.Slice(actives, func(i, j int) bool { return actives[i].seq < actives[j].seq })
	if len(actives) > 0 {
		a := actives[len(actives)-1]
		ls.active = &a
		ls.sealed = append(ls.sealed, actives[:len(actives)-1]...)
		sort.Slice(ls.sealed, func(i, j int) bool { return ls.sealed[i].seq < ls.sealed[j].seq })
	}
	return ls, nil
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segScan is what readSegment learned about a segment file.
type segScan struct {
	// sealed reports a complete seal footer as the file's final line.
	sealed bool
	footer sealFooter
	// goodBytes is the byte length of the complete lines (newlines
	// included, footer excluded).
	goodBytes int64
	// records counts complete lines, oversized ones included.
	records int
	// oversized counts complete lines longer than the bound, which were
	// checksummed but never buffered or delivered.
	oversized int
	// crc is the IEEE CRC-32 over the first goodBytes bytes.
	crc uint32
	// tornBytes counts trailing bytes after the last newline — a
	// half-written record from a crash.
	tornBytes int64
}

// readSegment is the one reader of the segment line format. It walks r
// byte-exactly, keeping a running checksum and length of the complete
// lines, and feeds each of them, newline stripped, to fn (nil: scan
// only — Open adopts an active segment that way). One line is held
// back, so only the file's final line can be the seal footer; a
// footer-shaped line with anything after it is a record. Lines longer
// than maxLine are counted instead of delivered (the writer refuses
// them, so a huge line means corruption, and buffering it would let a
// corrupt file exhaust memory). Anything after the last newline is the
// torn tail. The line handed to fn is only valid until fn returns; an
// error from fn stops the walk and is returned as is.
func readSegment(r io.Reader, maxLine int, fn func(line []byte) error) (segScan, error) {
	var st segScan
	var held, cur []byte // the last complete line with its newline (empty: none), not yet known to be non-final; the line being read
	var overCRC uint32   // st.crc run on through an oversized line, committed at its newline
	over := false
	release := func() error {
		line := held
		held = held[:0]
		st.crc = crc32.Update(st.crc, crc32.IEEETable, line)
		st.goodBytes += int64(len(line))
		st.records++
		if fn == nil {
			return nil
		}
		return fn(line[:len(line)-1])
	}
	br := bufio.NewReader(r)
	for {
		// ReadSlice contract: nil error means the chunk ends at the
		// newline (line complete); ErrBufferFull means more of the same
		// line follows; io.EOF means trailing bytes with no newline.
		chunk, rerr := br.ReadSlice('\n')
		if len(chunk) > 0 {
			if len(held) > 0 {
				if err := release(); err != nil {
					return st, err
				}
			}
			st.tornBytes += int64(len(chunk))
			switch {
			case over:
				overCRC = crc32.Update(overCRC, crc32.IEEETable, chunk)
			case len(cur)+len(chunk) > maxLine+1:
				over = true
				overCRC = crc32.Update(crc32.Update(st.crc, crc32.IEEETable, cur), crc32.IEEETable, chunk)
				cur = cur[:0]
			default:
				cur = append(cur, chunk...)
			}
		}
		switch rerr {
		case bufio.ErrBufferFull:
		case nil:
			if over {
				st.crc, over = overCRC, false
				st.goodBytes += st.tornBytes
				st.records++
				st.oversized++
			} else {
				held, cur = cur, held
			}
			st.tornBytes = 0
		case io.EOF:
			if len(held) > 0 {
				if st.footer, st.sealed = parseFooter(held[:len(held)-1]); !st.sealed {
					return st, release()
				}
			}
			return st, nil
		default:
			return st, fmt.Errorf("store: read segment: %w", rerr)
		}
	}
}
