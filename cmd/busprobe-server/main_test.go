package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"busprobe/internal/core/fingerprint"
	"busprobe/internal/sim"
)

// TestValidateFlags: contradictory flags are refused up front, every
// contradiction named in one error.
func TestValidateFlags(t *testing.T) {
	two := []string{"http://a", "http://b"}
	for _, tc := range []struct {
		name    string
		shards  int
		timeout float64
		dir     string
		id      int
		addrs   []string
		want    []string // substrings of the error; none = valid
	}{
		{name: "monolith", shards: 1, id: -1},
		{name: "monolith store", shards: 1, dir: "d", id: -1},
		{name: "shard process store", shards: 1, dir: "d", id: 1, addrs: two},
		{name: "coordinator tier", shards: 1, id: -1, addrs: two},
		{name: "store on coordinator tier", shards: 1, dir: "d", id: -1, addrs: two, want: []string{"coordinator tier"}},
		{name: "shard id without addrs", shards: 1, id: 0, want: []string{"-shard-id requires -shard-addrs"}},
		{name: "shard id outside addrs", shards: 1, id: 2, addrs: two, want: []string{"outside the 2-entry"}},
		{name: "request timeout", shards: 1, timeout: 30, id: -1},
		{name: "negative request timeout", shards: 1, timeout: -1, id: -1, want: []string{"-request-timeout must be"}},
		{name: "all listed at once", shards: 0, id: 0, want: []string{"-shards must be", "-shard-id requires"}},
	} {
		err := validateFlags(tc.shards, tc.timeout, tc.dir, tc.id, tc.addrs)
		if len(tc.want) == 0 {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
	}
}

// TestFlagSurface: the command line is 16 flags, and the retired
// -journal is not one of them — a stale invocation fails at flag
// parsing instead of being half-honoured.
func TestFlagSurface(t *testing.T) {
	n := 0
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			n++
		}
	})
	if n != 16 || flag.Lookup("journal") != nil {
		t.Errorf("%d flags (journal defined: %v), want 16 without -journal", n, flag.Lookup("journal") != nil)
	}
}

// TestBootRefusesPreviousStoreLayout: a shard process booted on a store
// directory in the previous segment layout exits non-zero, names the
// files it refuses, and leaves them byte-identical (there is no
// migration). The in-process topologies meet the same refusal through
// their degraded boot: the shard reports RECOVERY FAILED and starts
// fresh with no log.
func TestBootRefusesPreviousStoreLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "busprobe-server")
	if out, err := exec.Command("go", "build", "-o", bin, "busprobe/cmd/busprobe-server").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	base := filepath.Join(tmp, "store")
	dir := filepath.Join(base, "shard0")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"seg-00000001.seal":   "{\"kind\":\"trip\"}\n{\"busprobeSeal\":1}\n",
		"seg-00000002.active": "{\"kind\":\"trip\"}\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-world", "small", "-survey-runs", "1",
		"-shard-id", "0", "-shard-addrs", "http://127.0.0.1:1", "-store-dir", base).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 || ctx.Err() != nil {
		t.Fatalf("boot on a previous-layout store: %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "seg-00000001.seal") {
		t.Errorf("refusal does not name the .seal file:\n%s", out)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != len(files) {
		t.Fatalf("store directory now holds %v (err %v), want exactly the %d previous-layout files", ents, err, len(files))
	}
	for name, body := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != body {
			t.Errorf("%s changed (err %v)", name, err)
		}
	}
}

// TestLoadOrSurvey pins -fpdb's contract, "loaded if present, written
// after a survey otherwise", on the small world: a missing file is
// surveyed and written; a present file that does not load fails boot
// naming the file and leaves it byte-identical; a written file reloads
// to the identical database.
func TestLoadOrSurvey(t *testing.T) {
	wc, err := sim.PresetWorldConfig("small")
	if err != nil {
		t.Fatal(err)
	}
	wc.Seed = 1
	world, err := sim.BuildWorld(wc)
	if err != nil {
		t.Fatal(err)
	}
	dbBytes := func(db *fingerprint.DB) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := db.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	dir := t.TempDir()

	// Missing → surveyed and written.
	path := filepath.Join(dir, "stops.fpdb")
	surveyed, err := loadOrSurvey(world, 1, 1, path)
	if err != nil {
		t.Fatalf("missing file: %v", err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("survey not written: %v", err)
	}
	if want := dbBytes(surveyed); !bytes.Equal(written, want) {
		t.Error("written file differs from the surveyed database")
	}

	// Written then reloaded → identical WriteTo bytes.
	reloaded, err := loadOrSurvey(world, 1, 1, path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if !bytes.Equal(dbBytes(reloaded), written) {
		t.Error("reloaded database serializes differently")
	}

	// Garbage → error naming the file, file untouched.
	garbage := filepath.Join(dir, "garbage.fpdb")
	body := []byte("{not a fingerprint database")
	if err := os.WriteFile(garbage, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadOrSurvey(world, 1, 1, garbage); err == nil || !strings.Contains(err.Error(), garbage) {
		t.Errorf("garbage file: err %v, want an error naming %s", err, garbage)
	}
	if got, err := os.ReadFile(garbage); err != nil || !bytes.Equal(got, body) {
		t.Errorf("garbage file changed to %q (err %v)", got, err)
	}
}
