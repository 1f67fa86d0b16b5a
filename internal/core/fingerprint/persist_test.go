package fingerprint

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"busprobe/internal/cellular"
	"busprobe/internal/transit"
)

func populatedDB(t *testing.T) *DB {
	t.Helper()
	return newTestDB(t, map[transit.StopID]cellular.Fingerprint{
		3: fp(10, 20, 30),
		1: fp(40, 50),
		7: fp(60, 70, 80, 90),
	})
}

// TestPersistRoundTrip: write → read → write is byte-identical, and the
// read-back database carries the parameters and matches the same.
func TestPersistRoundTrip(t *testing.T) {
	db := populatedDB(t)
	var buf bytes.Buffer
	n, err := db.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	first := bytes.Clone(buf.Bytes())
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if second := writeBytes(t, back); !bytes.Equal(second, first) {
		t.Errorf("write → read → write moved the bytes:\n%s\nwant\n%s", second, first)
	}
	if back.Len() != db.Len() || back.gamma != db.gamma || back.scoring != db.scoring {
		t.Error("parameters lost")
	}
	for _, sample := range []cellular.Fingerprint{fp(10, 20, 30), fp(40, 50), fp(60, 70, 80, 90)} {
		if got, want := back.MatchAll(sample), db.MatchAll(sample); !reflect.DeepEqual(got, want) {
			t.Errorf("MatchAll(%v) = %+v after the round trip, want %+v", sample, got, want)
		}
	}
}

func TestPersistDeterministic(t *testing.T) {
	db := populatedDB(t)
	var a, b bytes.Buffer
	if _, err := db.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := db.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("serialization not deterministic")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(strings.NewReader("{nope")); err == nil {
		t.Error("want error for malformed JSON")
	}
	if _, err := ReadFrom(strings.NewReader(`{"format":99}`)); err == nil {
		t.Error("want error for unknown format")
	}
	// Bad scoring inside the file.
	if _, err := ReadFrom(strings.NewReader(`{"format":1,"match":0,"gamma":2}`)); err == nil {
		t.Error("want error for invalid scoring")
	}
	// Empty fingerprint entry.
	if _, err := ReadFrom(strings.NewReader(
		`{"format":1,"match":1,"mismatch":0.3,"gap":0.3,"gamma":2,"entries":[{"stop":1,"cells":[]}]}`)); err == nil {
		t.Error("want error for empty entry")
	}
	// A repeated stop row: neither copy silently wins.
	if _, err := ReadFrom(strings.NewReader(
		`{"format":1,"match":1,"mismatch":0.3,"gap":0.3,"gamma":2,"entries":[{"stop":1,"cells":[4,5]},{"stop":1,"cells":[6,7]}]}`)); err == nil {
		t.Error("want error for a duplicate stop row")
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := populatedDB(t)
	path := filepath.Join(t.TempDir(), "stops.fpdb")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Errorf("entries = %d", back.Len())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.fpdb")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: %v, want fs.ErrNotExist", err)
	}
	if err := db.SaveFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x")); err == nil {
		t.Error("want error for unwritable path")
	}
	// Saving over an existing file replaces it whole and leaves no tmp.
	other := newTestDB(t, map[transit.StopID]cellular.Fingerprint{9: fp(1, 2, 3)})
	if err := other.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, writeBytes(t, other)) {
		t.Errorf("overwritten file = %q (err %v), want the second database", got, err)
	}
	if ents, err := os.ReadDir(filepath.Dir(path)); err != nil || len(ents) != 1 {
		t.Errorf("directory holds %v (err %v), want only the saved file", ents, err)
	}
}

func TestPersistEmptyDB(t *testing.T) {
	db := newTestDB(t, nil)
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Errorf("entries = %d", back.Len())
	}
}
