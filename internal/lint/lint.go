// Package lint assembles the busprobe-vet analyzer suite: the custom
// go/analysis-style checks that enforce the repository's determinism,
// lock-discipline, and paper-constant invariants. cmd/busprobe-vet
// runs the suite under `go vet -vettool` in CI; internal/lint/driver
// also runs it standalone (`go run ./cmd/busprobe-vet ./...`), and the
// suite-over-repo test in the driver package keeps the tree clean
// between CI runs.
//
// Four analyzers (nowallclock, paperconst, lockorder, errcheckio) need
// only parsed files; the other four (guardedby, maporder, ctxpropagate,
// snapshotmut) resolve fields, signatures, and map-ness through the
// go/types information every driver attaches to every pass, so the
// suite is one list.
package lint

import (
	"busprobe/internal/lint/analysis"
	"busprobe/internal/lint/ctxpropagate"
	"busprobe/internal/lint/errcheckio"
	"busprobe/internal/lint/guardedby"
	"busprobe/internal/lint/lockorder"
	"busprobe/internal/lint/maporder"
	"busprobe/internal/lint/nowallclock"
	"busprobe/internal/lint/paperconst"
	"busprobe/internal/lint/snapshotmut"
)

// Suite returns the full busprobe-vet suite in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nowallclock.Analyzer,
		paperconst.Analyzer,
		lockorder.Analyzer,
		errcheckio.Analyzer,
		guardedby.Analyzer,
		maporder.Analyzer,
		ctxpropagate.Analyzer,
		snapshotmut.Analyzer,
	}
}
