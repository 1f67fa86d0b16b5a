package fingerprint

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"busprobe/internal/cellular"
	"busprobe/internal/transit"
)

// fileFormat is the on-disk schema version; bump on breaking changes.
const fileFormat = 1

// dbFile is the serialized database.
type dbFile struct {
	Format  int         `json:"format"`
	Match   float64     `json:"match"`
	Mis     float64     `json:"mismatch"`
	Gap     float64     `json:"gap"`
	Gamma   float64     `json:"gamma"`
	Entries []dbFileRow `json:"entries"`
}

// dbFileRow is one stop's fingerprint.
type dbFileRow struct {
	Stop  int   `json:"stop"`
	Cells []int `json:"cells"`
}

// WriteTo serializes the database (scoring, gamma, and all entries) as
// JSON. The survey is the system's most expensive offline asset (§IV-A
// collected it manually over 8 routes); persisting it lets deployments
// restart without re-surveying.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	out := dbFile{
		Format: fileFormat,
		Match:  db.scoring.Match,
		Mis:    db.scoring.Mismatch,
		Gap:    db.scoring.Gap,
		Gamma:  db.gamma,
	}
	for stop, fp := range db.entries {
		row := dbFileRow{Stop: int(stop), Cells: make([]int, len(fp))}
		for i, c := range fp {
			row.Cells[i] = int(c)
		}
		out.Entries = append(out.Entries, row)
	}
	// Deterministic output: sort rows by stop.
	sort.Slice(out.Entries, func(i, j int) bool {
		return out.Entries[i].Stop < out.Entries[j].Stop
	})
	cw := &countingWriter{w: w}
	enc := json.NewEncoder(cw)
	if err := enc.Encode(out); err != nil {
		return cw.n, fmt.Errorf("fingerprint: encode: %w", err)
	}
	return cw.n, nil
}

// ReadFrom deserializes a database previously written with WriteTo. A
// repeated stop row or an empty fingerprint is an error.
func ReadFrom(r io.Reader) (*DB, error) {
	var in dbFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("fingerprint: decode: %w", err)
	}
	if in.Format != fileFormat {
		return nil, fmt.Errorf("fingerprint: unsupported format %d (want %d)", in.Format, fileFormat)
	}
	entries := make(map[transit.StopID]cellular.Fingerprint, len(in.Entries))
	for _, row := range in.Entries {
		stop := transit.StopID(row.Stop)
		if _, dup := entries[stop]; dup {
			return nil, fmt.Errorf("fingerprint: stop %d listed twice", row.Stop)
		}
		fp := make(cellular.Fingerprint, len(row.Cells))
		for i, c := range row.Cells {
			fp[i] = cellular.CellID(c)
		}
		entries[stop] = fp
	}
	return NewDB(Scoring{Match: in.Match, Mismatch: in.Mis, Gap: in.Gap}, in.Gamma, entries)
}

// SaveFile writes the database to a file path without ever exposing a
// partial file there: the bytes go to path+".tmp", are fsynced, and the
// tmp file is renamed over path. A crash mid-save leaves the previous
// file (or none), never a torn one that LoadFile would refuse.
func (db *DB) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	bw := bufio.NewWriter(f)
	_, err = db.WriteTo(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return errors.Join(fmt.Errorf("fingerprint: save %s: %w", path, err), os.Remove(tmp))
	}
	return nil
}

// LoadFile reads a database from a file path. A missing file's error
// satisfies errors.Is(err, fs.ErrNotExist).
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fingerprint: %w", err)
	}
	defer f.Close()
	return ReadFrom(bufio.NewReader(f))
}

// countingWriter tracks bytes written for the io.WriterTo-style return.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
