package driver

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"busprobe/internal/lint"
	"busprobe/internal/lint/analysis"
	"busprobe/internal/lint/loader"
)

// suite is the full eight-analyzer stack the production drivers run.
func suite() []*analysis.Analyzer {
	return lint.Suite()
}

// repoRoot walks up from the test's working directory to go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := loader.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestRepoIsClean is the acceptance gate in test form: the full suite
// over the whole module must report nothing. A failure here lists the
// exact findings a CI `go vet -vettool` run would fail on.
func TestRepoIsClean(t *testing.T) {
	root := repoRoot(t)
	findings, err := AnalyzePatterns(suite(), root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestAnalyzePatternsFindsPlantedViolation proves the standalone path
// actually runs the analyzers: a scratch module with a time.Now call
// must produce exactly one nowallclock finding.
func TestAnalyzePatternsFindsPlantedViolation(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "pkg", "p.go"), `package pkg

import "time"

func now() time.Time { return time.Now() }
`)
	findings, err := AnalyzePatterns(suite(), dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly one", findings)
	}
	if f := findings[0]; f.Analyzer != "nowallclock" || !strings.Contains(f.Message, "time.Now") {
		t.Fatalf("unexpected finding: %s", f)
	}
}

// TestAnalyzePatternsExternalTestImportsDependent: an external test
// package may import a package that itself imports the package under
// test, as `go test` allows. Both must see one set of types, and the
// in-package test's helpers stay visible to the external test.
func TestAnalyzePatternsExternalTestImportsDependent(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "a", "a.go"), "package a\n\ntype T struct{ N int }\n")
	writeFile(t, filepath.Join(dir, "a", "export_test.go"), "package a\n\nfunc Peek(t *T) int { return t.N }\n")
	writeFile(t, filepath.Join(dir, "b", "b.go"), "package b\n\nimport \"scratch/a\"\n\nfunc New() *a.T { return &a.T{N: 1} }\n")
	writeFile(t, filepath.Join(dir, "a", "a_test.go"), `package a_test

import (
	"testing"

	"scratch/a"
	"scratch/b"
)

func TestT(t *testing.T) {
	var x *a.T = b.New()
	_ = a.Peek(x)
}
`)
	findings, err := AnalyzePatterns(suite(), dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

// TestUnitcheckProtocol drives the vet.cfg path the way the go command
// does: the tool must write the facts file, print findings, strip the
// "pkg [pkg.test]" import-path variant, and honor VetxOnly.
func TestUnitcheckProtocol(t *testing.T) {
	dir := t.TempDir()
	// The config below carries no PackageFile table, so the unit
	// checker falls back to source-loading imports against the
	// enclosing module — give the scratch dir one.
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.22\n")
	src := filepath.Join(dir, "p.go")
	writeFile(t, src, `package pkg

import "time"

func now() time.Time { return time.Now() }
`)
	vetx := filepath.Join(dir, "out.vetx")
	cfg := filepath.Join(dir, "vet.cfg")
	writeFile(t, cfg, `{
  "ID": "scratch/pkg",
  "Dir": "`+dir+`",
  "ImportPath": "scratch/pkg [scratch/pkg.test]",
  "GoFiles": ["p.go"],
  "VetxOutput": "`+vetx+`"
}`)

	if code := unitcheck(suite(), cfg); code != 2 {
		t.Fatalf("unitcheck exit = %d, want 2 (findings)", code)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Fatalf("facts file not written: %v", err)
	}

	// VetxOnly skips analysis entirely but still writes the output.
	if err := os.Remove(vetx); err != nil {
		t.Fatal(err)
	}
	writeFile(t, cfg, `{
  "ID": "scratch/pkg",
  "Dir": "`+dir+`",
  "ImportPath": "scratch/pkg",
  "GoFiles": ["p.go"],
  "VetxOnly": true,
  "VetxOutput": "`+vetx+`"
}`)
	if code := unitcheck(suite(), cfg); code != 0 {
		t.Fatalf("VetxOnly exit = %d, want 0", code)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Fatalf("facts file not written on VetxOnly pass: %v", err)
	}
}

// TestUnitcheckExemptImportPathVariant proves the test-variant suffix
// is stripped before package exemptions apply: the clock package's own
// test binary must not be flagged for reading the wall clock.
func TestUnitcheckExemptImportPathVariant(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module busprobe2\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "clock.go"), `package clock

import "time"

func now() time.Time { return time.Now() }
`)
	vetx := filepath.Join(dir, "out.vetx")
	cfg := filepath.Join(dir, "vet.cfg")
	writeFile(t, cfg, `{
  "ID": "busprobe/internal/clock",
  "Dir": "`+dir+`",
  "ImportPath": "busprobe/internal/clock [busprobe/internal/clock.test]",
  "GoFiles": ["clock.go"],
  "VetxOutput": "`+vetx+`"
}`)
	if code := unitcheck(suite(), cfg); code != 0 {
		t.Fatalf("exit = %d, want 0 (clock package is exempt)", code)
	}
}

// TestGoVetPlantedViolations proves each type-aware analyzer fires
// through the real `go vet -vettool` path — the go command's own
// handshake, vet.cfg files, and export-data type inputs — not just the
// standalone walker. One scratch module, one planted violation per
// analyzer.
func TestGoVetPlantedViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vet tool and runs go vet")
	}
	root := repoRoot(t)
	tool := filepath.Join(t.TempDir(), "busprobe-vet")
	build := exec.Command("go", "build", "-o", tool, "./cmd/busprobe-vet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build vet tool: %v\n%s", err, out)
	}

	// The scratch module's path sits under busprobe/ so it may import
	// the repo's internal packages (snapshotmut keys on the real
	// traffic.Snapshot type); the replace directive resolves the
	// dependency to the local checkout, no network involved.
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), `module busprobe/scratch

go 1.22

require busprobe v0.0.0

replace busprobe => `+root+"\n")
	writeFile(t, filepath.Join(dir, "gb", "gb.go"), `package gb

import "sync"

type C struct {
	mu sync.Mutex
	n  int //lint:guardedby mu
}

func (c *C) Bump() { c.n++ }
`)
	writeFile(t, filepath.Join(dir, "mo", "mo.go"), `package mo

import (
	"fmt"
	"io"
)

func Dump(w io.Writer, m map[int]string) error {
	for k, v := range m {
		if _, err := fmt.Fprintf(w, "%d=%s\n", k, v); err != nil {
			return err
		}
	}
	return nil
}
`)
	writeFile(t, filepath.Join(dir, "cp", "cp.go"), `package cp

import "context"

func Detach() error {
	ctx := context.Background()
	return ctx.Err()
}
`)
	writeFile(t, filepath.Join(dir, "sm", "sm.go"), `package sm

import (
	"busprobe/internal/core/traffic"
	"busprobe/internal/road"
)

func Poke(s *traffic.Snapshot, sid road.SegmentID, est traffic.Estimate) {
	s.Estimates[sid] = est
}
`)

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on planted violations:\n%s", out)
	}
	for _, want := range []string{"guardedby:", "maporder:", "ctxpropagate:", "snapshotmut:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("go vet output missing %q finding:\n%s", want, out)
		}
	}
}

// TestWriteJSON checks the -json rendering: deterministic order is the
// caller's (AnalyzePatterns sorts), paths inside dir become relative
// with forward slashes, paths outside stay absolute.
func TestWriteJSON(t *testing.T) {
	dir := t.TempDir()
	findings := []Finding{
		{
			Position: token.Position{Filename: filepath.Join(dir, "pkg", "a.go"), Line: 3, Column: 7},
			Analyzer: "nowallclock",
			Message:  "time.Now read",
		},
		{
			Position: token.Position{Filename: "/elsewhere/b.go", Line: 10, Column: 1},
			Analyzer: "maporder",
			Message:  "unsorted range",
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, dir, findings); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 2 {
		t.Fatalf("records = %d, want 2", len(got))
	}
	if got[0].File != "pkg/a.go" || got[0].Line != 3 || got[0].Col != 7 || got[0].Analyzer != "nowallclock" {
		t.Errorf("first record = %+v", got[0])
	}
	if got[1].File != "/elsewhere/b.go" || got[1].Analyzer != "maporder" {
		t.Errorf("second record = %+v", got[1])
	}
}

// TestMalformedAllowFailsBuild proves a bare //lint:allow (no
// justification) both fails to suppress the underlying finding and
// adds an allowcheck finding of its own.
func TestMalformedAllowFailsBuild(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "pkg", "p.go"), `package pkg

import "time"

func now() time.Time {
	return time.Now() //lint:allow nowallclock
}
`)
	findings, err := AnalyzePatterns(suite(), dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var sawAllowcheck, sawOriginal bool
	for _, f := range findings {
		switch f.Analyzer {
		case "allowcheck":
			sawAllowcheck = true
		case "nowallclock":
			sawOriginal = true
		}
	}
	if !sawAllowcheck {
		t.Errorf("no allowcheck finding for bare //lint:allow: %v", findings)
	}
	if !sawOriginal {
		t.Errorf("bare //lint:allow suppressed the finding it cannot justify: %v", findings)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
