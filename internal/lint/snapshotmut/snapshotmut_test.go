package snapshotmut_test

import (
	"testing"

	"busprobe/internal/lint/analysistest"
	"busprobe/internal/lint/snapshotmut"
)

// TestSnapshotMutFixture proves writes to snapshot-owned maps —
// direct, aliased, or after publication into a Snapshot literal — are
// flagged while the copy-before-write idiom, accessor clones, reads,
// and justified allows stay clean.
func TestSnapshotMutFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), snapshotmut.Analyzer, "snapshotmut_a")
}

// TestSnapshotMutMemoExemption checks the writes sanctioned inside the
// defining package: the Rendered memo method and the patchSnapshot
// constructor are clean, and the memo field written (or written
// through), or the same clone-and-patch, from any other function there
// is still a finding.
func TestSnapshotMutMemoExemption(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), snapshotmut.Analyzer, "busprobe/internal/core/traffic")
}
