// Command busprobe-vet runs the repository's custom analyzer suite:
// determinism (nowallclock), canonical paper constants (paperconst),
// lock discipline (lockorder), persistence-path error handling
// (errcheckio), and the four type-aware invariants — annotated lock
// guards (guardedby), map-iteration determinism (maporder), context
// threading (ctxpropagate), and snapshot immutability (snapshotmut).
// See DESIGN.md §6e/§6j for the enforced invariants and the
// //lint:allow escape-hatch convention.
//
// Two ways to run it:
//
//	go run ./cmd/busprobe-vet ./...            # standalone, fast
//	go build -o bin/busprobe-vet ./cmd/busprobe-vet
//	go vet -vettool=bin/busprobe-vet ./...     # the CI path
//
// Standalone-only flag: -json emits machine-readable findings on
// stdout.
package main

import (
	"os"

	"busprobe/internal/lint"
	"busprobe/internal/lint/driver"
)

func main() {
	os.Exit(driver.Main(lint.Suite()))
}
