package fingerprint

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"busprobe/internal/cellular"
	"busprobe/internal/stats"
	"busprobe/internal/transit"
)

// newTestDB builds a database at the paper's γ over the given entries.
func newTestDB(tb testing.TB, entries map[transit.StopID]cellular.Fingerprint) *DB {
	tb.Helper()
	db, err := NewDB(DefaultScoring(), DefaultGamma, entries)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// writeBytes serializes a database.
func writeBytes(tb testing.TB, db *DB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// randomEntries draws n stops with 3–8 cell IDs each from [0, cells).
func randomEntries(rng *stats.RNG, n, cells int) map[transit.StopID]cellular.Fingerprint {
	entries := make(map[transit.StopID]cellular.Fingerprint, n)
	for s := 0; s < n; s++ {
		entries[transit.StopID(s)] = randomFingerprint(rng, cells)
	}
	return entries
}

// randomFingerprint draws 3–8 cell IDs from [0, cells).
func randomFingerprint(rng *stats.RNG, cells int) cellular.Fingerprint {
	out := make(cellular.Fingerprint, 3+rng.Intn(6))
	for i := range out {
		out[i] = cellular.CellID(rng.Intn(cells))
	}
	return out
}

func TestNewDBValidation(t *testing.T) {
	if _, err := NewDB(Scoring{Match: 0}, 2, nil); err == nil {
		t.Error("want error for bad scoring")
	}
	if _, err := NewDB(DefaultScoring(), -1, nil); err == nil {
		t.Error("want error for negative gamma")
	}
	if _, err := NewDB(DefaultScoring(), DefaultGamma, map[transit.StopID]cellular.Fingerprint{1: fp(10), 2: nil}); err == nil {
		t.Error("want error for empty fingerprint")
	}
	if db := newTestDB(t, nil); db.Len() != 0 {
		t.Errorf("nil entries: Len = %d", db.Len())
	}
	if db := newTestDB(t, map[transit.StopID]cellular.Fingerprint{1: fp(10, 20, 30)}); db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

// TestPutGet: an entry handed to NewDB is stored as given and is the
// only one stored; an empty fingerprint is refused.
func TestPutGet(t *testing.T) {
	db := newTestDB(t, map[transit.StopID]cellular.Fingerprint{1: fp(10, 20, 30)})
	var file dbFile
	if err := json.Unmarshal(writeBytes(t, db), &file); err != nil {
		t.Fatal(err)
	}
	want := []dbFileRow{{Stop: 1, Cells: []int{10, 20, 30}}}
	if !reflect.DeepEqual(file.Entries, want) {
		t.Fatalf("stored rows = %+v, want %+v", file.Entries, want)
	}
	if m, ok := db.Match(fp(10, 20, 30)); !ok || m.Stop != 1 {
		t.Errorf("Match = %+v, %v", m, ok)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	if _, err := NewDB(DefaultScoring(), DefaultGamma, map[transit.StopID]cellular.Fingerprint{1: nil}); err == nil {
		t.Error("want error for empty fingerprint")
	}
}

// TestNewDBCopiesInput: the caller's map and slices are the caller's.
// Mutating them after NewDB changes no match and no WriteTo byte.
func TestNewDBCopiesInput(t *testing.T) {
	entries := map[transit.StopID]cellular.Fingerprint{
		1: fp(1, 2, 3, 4),
		2: fp(5, 6, 7, 8),
	}
	db := newTestDB(t, entries)
	want := writeBytes(t, db)
	wantMatch := db.MatchAll(fp(1, 2, 3, 4))

	entries[1][0] = 99
	entries[2] = fp(1, 2, 3, 4)
	entries[3] = fp(1, 2, 3, 4)
	delete(entries, 1)

	if got := writeBytes(t, db); !bytes.Equal(got, want) {
		t.Errorf("WriteTo moved after the caller mutated its input:\n%s\nwant\n%s", got, want)
	}
	if got := db.MatchAll(fp(1, 2, 3, 4)); !reflect.DeepEqual(got, wantMatch) {
		t.Errorf("MatchAll = %+v after the caller mutated its input, want %+v", got, wantMatch)
	}
}

// TestStopsSorted: WriteTo lists the stop rows in ascending ID order,
// whatever order the map handed them over in.
func TestStopsSorted(t *testing.T) {
	db := newTestDB(t, map[transit.StopID]cellular.Fingerprint{5: fp(5, 100), 1: fp(1, 100), 3: fp(3, 100)})
	var file dbFile
	if err := json.Unmarshal(writeBytes(t, db), &file); err != nil {
		t.Fatal(err)
	}
	var stops []int
	for _, row := range file.Entries {
		stops = append(stops, row.Stop)
	}
	if !reflect.DeepEqual(stops, []int{1, 3, 5}) {
		t.Errorf("rows = %v, want [1 3 5]", stops)
	}
}

func TestMatchBestAndThreshold(t *testing.T) {
	db := newTestDB(t, map[transit.StopID]cellular.Fingerprint{
		1: fp(1, 2, 3, 4, 5),
		2: fp(6, 7, 8, 9),
		3: fp(1, 2, 10, 11),
	})
	m, ok := db.Match(fp(1, 2, 3, 4))
	if !ok || m.Stop != 1 {
		t.Fatalf("Match = %+v, %v", m, ok)
	}
	if m.Score < 4-1e-9 {
		t.Errorf("score = %v", m.Score)
	}

	// A sample sharing too little with anything is rejected by gamma.
	if _, ok := db.Match(fp(100, 101, 1)); ok {
		t.Error("noisy sample should be rejected")
	}
	if got := db.MatchAll(nil); got != nil {
		t.Error("empty sample should give nil")
	}
}

func TestMatchAllOrdering(t *testing.T) {
	db := newTestDB(t, map[transit.StopID]cellular.Fingerprint{
		1: fp(1, 2, 3, 4),
		2: fp(1, 2, 3, 9),
	})
	all := db.MatchAll(fp(1, 2, 3, 4))
	if len(all) != 2 {
		t.Fatalf("candidates = %d", len(all))
	}
	if all[0].Stop != 1 || all[0].Score < all[1].Score {
		t.Errorf("ordering wrong: %+v", all)
	}
}

func TestMatchTieBreakOnCommonIDs(t *testing.T) {
	// Both stops align the sample prefix {1,2,3} perfectly (score 3),
	// but stop 2 shares an extra ID (4) outside the alignment.
	db := newTestDB(t, map[transit.StopID]cellular.Fingerprint{
		1: fp(1, 2, 3, 7, 8),
		2: fp(1, 2, 3, 9, 4),
	})
	sample := fp(1, 2, 3, 4)
	all := db.MatchAll(sample)
	if len(all) != 2 {
		t.Fatalf("candidates = %d", len(all))
	}
	if all[0].Score != all[1].Score {
		t.Skipf("scores unequal (%v vs %v); tie-break not exercised", all[0].Score, all[1].Score)
	}
	if all[0].Stop != 2 {
		t.Errorf("tie broken to stop %d, want 2 (more common IDs)", all[0].Stop)
	}
}

func TestRepresentativePicksMedoid(t *testing.T) {
	samples := []cellular.Fingerprint{
		fp(1, 2, 3, 4, 5),   // canonical
		fp(1, 2, 3, 5, 4),   // minor swap
		fp(1, 2, 3, 4, 6),   // one tower differs
		fp(9, 8, 7, 60, 61), // outlier run
	}
	got, err := Representative(samples, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(samples[3]) {
		t.Error("outlier chosen as representative")
	}
	// Two samples always tie on total similarity (alignment is
	// symmetric): the first one wins, whichever it is.
	for _, pair := range [][]cellular.Fingerprint{{fp(1, 2, 3), fp(1, 3, 2)}, {fp(1, 3, 2), fp(1, 2, 3)}} {
		if got, _ := Representative(pair, DefaultScoring()); !got.Equal(pair[0]) {
			t.Errorf("Representative(%v) = %v, want the first maximum", pair, got)
		}
	}
	if _, err := Representative(nil, DefaultScoring()); err == nil {
		t.Error("want error for no samples")
	}
}

// TestDBConcurrentAccess is the whole concurrency contract of a built
// database: eight goroutines match and serialize one shared DB and all
// see exactly what a serial caller sees.
func TestDBConcurrentAccess(t *testing.T) {
	rng := stats.NewRNG(77)
	db := newTestDB(t, randomEntries(rng, 50, 60))
	samples := make([]cellular.Fingerprint, 40)
	for i := range samples {
		samples[i] = randomFingerprint(rng, 60)
	}
	wantAll := make([][]Match, len(samples))
	for i, s := range samples {
		wantAll[i] = db.MatchAll(s)
	}
	wantBytes := writeBytes(t, db)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w*200 + i) % len(samples)
				if got := db.MatchAll(samples[k]); !reflect.DeepEqual(got, wantAll[k]) {
					t.Errorf("goroutine %d: MatchAll(sample %d) = %+v, want %+v", w, k, got, wantAll[k])
					return
				}
				m, ok := db.Match(samples[k])
				if ok != (len(wantAll[k]) > 0) || (ok && m != wantAll[k][0]) {
					t.Errorf("goroutine %d: Match(sample %d) = %+v, %v", w, k, m, ok)
					return
				}
				if i%20 == 0 {
					var buf bytes.Buffer
					if _, err := db.WriteTo(&buf); err != nil || !bytes.Equal(buf.Bytes(), wantBytes) {
						t.Errorf("goroutine %d: WriteTo diverged (err %v)", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestIndexedMatchEqualsFullScan(t *testing.T) {
	// The inverted index must produce byte-identical results to the
	// exhaustive scan across random databases and samples.
	rng := stats.NewRNG(1234)
	for trial := 0; trial < 50; trial++ {
		entries := randomEntries(rng, 5+rng.Intn(30), 60)
		indexed := newTestDB(t, entries)                 // gamma = 2 -> indexed path
		full, err := NewDB(DefaultScoring(), 0, entries) // gamma = 0 -> full scan
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			sample := randomFingerprint(rng, 60)
			got := indexed.MatchAll(sample)
			// Reference: full scan filtered at gamma 2.
			var want []Match
			for _, m := range full.MatchAll(sample) {
				if m.Score >= 2 {
					want = append(want, m)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: indexed %d matches, full %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: match %d differs: %+v vs %+v", trial, i, got[i], want[i])
				}
			}
		}
	}
}

func BenchmarkMatchCityScaleIndexed(b *testing.B) {
	db, sample := cityScaleDB(b, 2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.MatchAll(sample)
	}
}

func BenchmarkMatchCityScaleFullScan(b *testing.B) {
	db, sample := cityScaleDB(b, 0) // gamma 0 disables the index
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.MatchAll(sample)
	}
}

// cityScaleDB builds a 5000-stop database with localized tower reuse.
func cityScaleDB(b *testing.B, gamma float64) (*DB, cellular.Fingerprint) {
	b.Helper()
	rng := stats.NewRNG(9)
	entries := make(map[transit.StopID]cellular.Fingerprint, 5000)
	for s := 0; s < 5000; s++ {
		base := (s / 4) * 3 // neighbouring stops share towers
		entry := make(cellular.Fingerprint, 6)
		for i := range entry {
			entry[i] = cellular.CellID(base + rng.Intn(10))
		}
		entries[transit.StopID(s)] = entry
	}
	db, err := NewDB(DefaultScoring(), gamma, entries)
	if err != nil {
		b.Fatal(err)
	}
	return db, fp(3000, 3001, 3004, 3007, 3009)
}
