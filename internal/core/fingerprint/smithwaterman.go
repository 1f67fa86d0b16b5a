// Package fingerprint implements the paper's cellular-fingerprint
// machinery (§III-A, §III-C(1)): the modified Smith–Waterman local
// alignment that scores the similarity of two rank-ordered cell-ID sets,
// and the bus-stop fingerprint database with the per-sample matching and
// γ-threshold filtering of the backend's first pipeline stage.
//
// The modification relative to textbook Smith–Waterman is the input
// domain: sequences are cell IDs ordered by received signal strength,
// so the alignment scores rank agreement and ignores absolute RSS, which
// varies with weather, time and vehicle attenuation while the rank order
// largely persists.
package fingerprint

import (
	"fmt"
	"slices"

	"busprobe/internal/cellular"
)

// Scoring holds the alignment weights. Match is added per aligned equal
// pair; Mismatch and Gap are positive penalties subtracted per aligned
// unequal pair and per skipped element respectively.
type Scoring struct {
	Match    float64
	Mismatch float64
	Gap      float64
}

// DefaultScoring is the paper's tuned setting: the mismatch penalty was
// swept over 0.1-0.9 and 0.3 gave the best matching accuracy; the same
// cost is used for gaps (Table I scores {1,2,3,4,5} vs {1,7,3,5} at
// 3 matches - 1 gap - 1 mismatch = 2.4).
func DefaultScoring() Scoring {
	return Scoring{Match: 1, Mismatch: 0.3, Gap: 0.3}
}

// Validate rejects non-positive match rewards and negative penalties.
func (s Scoring) Validate() error {
	if s.Match <= 0 {
		return fmt.Errorf("fingerprint: non-positive match reward %v", s.Match)
	}
	if s.Mismatch < 0 || s.Gap < 0 {
		return fmt.Errorf("fingerprint: negative penalties %+v", s)
	}
	return nil
}

// Alignment is the result of a local alignment: the similarity score and
// the composition of the optimal local alignment (as in Table I).
type Alignment struct {
	Score      float64
	Matches    int
	Mismatches int
	Gaps       int
}

// Similarity returns the Smith–Waterman similarity score of two
// fingerprints. It is Align without the traceback, saving the pointer
// matrix on the hot path.
func Similarity(a, b cellular.Fingerprint, sc Scoring) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return similarity(a, b, sc, make([]float64, len(b)+1), make([]float64, len(b)+1))
}

// similarity is Similarity's kernel over caller-provided rows, each
// len(b)+1 long, prev all zero. Every caller shares it, so a score does
// not depend on where its rows live.
func similarity(a, b cellular.Fingerprint, sc Scoring, prev, cur []float64) float64 {
	n, m := len(a), len(b)
	var best float64
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			diag := prev[j-1]
			if a[i-1] == b[j-1] {
				diag += sc.Match
			} else {
				diag -= sc.Mismatch
			}
			v := diag
			if up := prev[j] - sc.Gap; up > v {
				v = up
			}
			if left := cur[j-1] - sc.Gap; left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// Align computes the optimal local alignment with a traceback, reporting
// the match/mismatch/gap composition.
func Align(a, b cellular.Fingerprint, sc Scoring) Alignment {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return Alignment{}
	}
	// h holds scores, from holds traceback pointers:
	// 0 stop, 1 diagonal, 2 up (gap in b), 3 left (gap in a).
	h := make([][]float64, n+1)
	from := make([][]uint8, n+1)
	for i := range h {
		h[i] = make([]float64, m+1)
		from[i] = make([]uint8, m+1)
	}
	var best float64
	bi, bj := 0, 0
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			diag := h[i-1][j-1]
			if a[i-1] == b[j-1] {
				diag += sc.Match
			} else {
				diag -= sc.Mismatch
			}
			v, f := diag, uint8(1)
			if up := h[i-1][j] - sc.Gap; up > v {
				v, f = up, 2
			}
			if left := h[i][j-1] - sc.Gap; left > v {
				v, f = left, 3
			}
			if v <= 0 {
				v, f = 0, 0
			}
			h[i][j] = v
			from[i][j] = f
			if v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	al := Alignment{Score: best}
	for i, j := bi, bj; i > 0 && j > 0 && from[i][j] != 0; {
		switch from[i][j] {
		case 1:
			if a[i-1] == b[j-1] {
				al.Matches++
			} else {
				al.Mismatches++
			}
			i--
			j--
		case 2:
			al.Gaps++
			i--
		case 3:
			al.Gaps++
			j--
		}
	}
	return al
}

// CommonIDs returns the number of cell IDs present in both fingerprints,
// the paper's tie-breaker when two stops score equally. An ID repeated
// in either fingerprint counts once. Fingerprints hold a handful of
// towers, so the quadratic scan beats building a set.
func CommonIDs(a, b cellular.Fingerprint) int {
	n := 0
	for j, c := range b {
		if slices.Contains(a, c) && !slices.Contains(b[:j], c) {
			n++
		}
	}
	return n
}
