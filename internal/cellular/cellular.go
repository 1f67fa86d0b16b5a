// Package cellular simulates the GSM/UMTS radio environment the system
// fingerprints: cell towers spread over the city, a log-distance
// path-loss model with spatially frozen shadow fading, and phone-side
// scans that return the visible towers ordered by received signal
// strength (RSS).
//
// The paper's method relies on two empirical properties of this
// environment (§III-A): the rank order of cell IDs at a fixed place is
// stable across time, weather and on/off-bus conditions (Fig. 2(b)),
// while the *sets* of visible cells at different stops diverge quickly
// with distance (Fig. 2(c)). The model reproduces both: shadow fading is
// frozen per (tower, ~120 m lattice cell, bilinearly interpolated) so a
// place has a persistent radio signature, and per-scan noise, weather
// offsets and bus-body attenuation perturb absolute RSS without usually
// reordering well-separated towers.
//
// Urban macro-cells in the paper cover roughly 200-900 m; the default
// deployment spaces towers ~600 m apart, yielding the paper's typical
// 4-7 visible towers per scan.
package cellular

import (
	"fmt"
	"math"
	"sort"

	"busprobe/internal/geo"
	"busprobe/internal/stats"
)

// CellID is a cell tower identifier as reported by the modem.
type CellID int

// Tower is one simulated cell site.
type Tower struct {
	ID  CellID
	Pos geo.XY
	// TxDBm is the reference RSS at the reference distance (antenna
	// power folded with antenna gain).
	TxDBm float64
	// weatherSens scales how strongly a global weather offset moves
	// this tower's RSS (towers differ by mounting and orientation).
	weatherSens float64
}

// Reading is one tower observation in a scan.
type Reading struct {
	Cell CellID  `json:"cell"`
	RSS  float64 `json:"rss"` // dBm
}

// Fingerprint is an ordered set of cell IDs, strongest first — the
// paper's signature for a place in "cellular space".
type Fingerprint []CellID

// Equal reports element-wise equality.
func (f Fingerprint) Equal(g Fingerprint) bool {
	if len(f) != len(g) {
		return false
	}
	for i := range f {
		if f[i] != g[i] {
			return false
		}
	}
	return true
}

// String renders the fingerprint like the paper's Fig. 3 stop labels.
func (f Fingerprint) String() string {
	s := ""
	for i, c := range f {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", int(c))
	}
	return s
}

// FingerprintOf extracts the ordered cell-ID set from scan readings
// (which are already sorted by descending RSS).
func FingerprintOf(rs []Reading) Fingerprint {
	fp := make(Fingerprint, len(rs))
	for i, r := range rs {
		fp[i] = r.Cell
	}
	return fp
}

// Condition captures the context of one scan.
type Condition struct {
	// OnBus applies vehicle-body attenuation and extra variance.
	OnBus bool
	// Weather in [-1, 1]: 0 clear, positive wetter. Scales a global RSS
	// offset, one of the paper's sources of day-to-day variation.
	Weather float64
}

// Model holds the propagation parameters.
type Model struct {
	// RefDistM is the path-loss reference distance d0.
	RefDistM float64
	// Exponent is the path-loss exponent n (urban: 2.7-3.5).
	Exponent float64
	// ShadowSigmaDB is the lognormal shadow-fading deviation. Fades are
	// frozen per (tower, lattice point) and bilinearly interpolated, so
	// the field is deterministic per place and spatially correlated
	// over roughly ShadowCellM meters, as urban shadowing is.
	ShadowSigmaDB float64
	// ShadowCellM is the lattice pitch of the frozen shadowing field.
	ShadowCellM float64
	// NoiseSigmaDB is per-scan measurement noise.
	NoiseSigmaDB float64
	// BusAttenDB is the mean extra loss inside a bus.
	BusAttenDB float64
	// SensitivityDBm is the weakest RSS the modem reports.
	SensitivityDBm float64
	// MaxVisible caps the number of towers a scan returns (modems
	// report the serving cell plus a bounded neighbour list).
	MaxVisible int
}

// DefaultModel returns parameters tuned so scans see 4-7 towers with
// ~200-900 m effective cell radii, matching §III-A.
func DefaultModel() Model {
	return Model{
		RefDistM:       10,
		Exponent:       3.3,
		ShadowSigmaDB:  7,
		ShadowCellM:    120,
		NoiseSigmaDB:   0.8,
		BusAttenDB:     1.5,
		SensitivityDBm: -102,
		MaxVisible:     7,
	}
}

// DeployConfig parameterizes tower placement.
type DeployConfig struct {
	// SpacingM is the mean inter-site distance.
	SpacingM float64
	// JitterM perturbs the regular placement.
	JitterM float64
	// MarginM extends placement beyond the region bounding box so edge
	// positions still see a full neighbourhood of towers.
	MarginM float64
	// Seed drives placement, ID assignment, and frozen shadowing.
	Seed uint64
	// Model holds the propagation parameters.
	Model Model
}

// DefaultDeployConfig returns the deployment used by the experiments.
func DefaultDeployConfig() DeployConfig {
	return DeployConfig{
		SpacingM: 600,
		JitterM:  150,
		MarginM:  900,
		Seed:     1,
		Model:    DefaultModel(),
	}
}

// Deployment is an immutable set of towers plus the propagation model.
// Scans are safe for concurrent use as long as each goroutine brings its
// own RNG.
type Deployment struct {
	towers []Tower
	model  Model
	seed   uint64
}

// NewDeployment places towers on a jittered grid covering the region.
func NewDeployment(region geo.BBox, cfg DeployConfig) (*Deployment, error) {
	if cfg.SpacingM <= 0 {
		return nil, fmt.Errorf("cellular: non-positive spacing %v", cfg.SpacingM)
	}
	if cfg.Model.MaxVisible <= 0 {
		return nil, fmt.Errorf("cellular: MaxVisible must be positive")
	}
	rng := stats.NewRNG(cfg.Seed).Fork("cell-deploy")
	area := region.Expand(cfg.MarginM)
	var towers []Tower
	usedIDs := make(map[CellID]bool)
	nextID := func() CellID {
		for {
			id := CellID(100 + rng.Intn(64000))
			if !usedIDs[id] {
				usedIDs[id] = true
				return id
			}
		}
	}
	for y := area.MinY; y <= area.MaxY; y += cfg.SpacingM {
		for x := area.MinX; x <= area.MaxX; x += cfg.SpacingM {
			pos := geo.XY{
				X: x + rng.Range(-cfg.JitterM, cfg.JitterM),
				Y: y + rng.Range(-cfg.JitterM, cfg.JitterM),
			}
			towers = append(towers, Tower{
				ID:          nextID(),
				Pos:         pos,
				TxDBm:       rng.Range(-43, -37),
				weatherSens: rng.Range(0.6, 1.4),
			})
		}
	}
	if len(towers) == 0 {
		return nil, fmt.Errorf("cellular: empty deployment")
	}
	return &Deployment{towers: towers, model: cfg.Model, seed: cfg.Seed}, nil
}

// NumTowers returns the tower count.
func (d *Deployment) NumTowers() int { return len(d.towers) }

// Towers returns the tower list; callers must not modify it.
func (d *Deployment) Towers() []Tower { return d.towers }

// meanRSS returns the noise-free RSS of a tower at a position: path loss
// plus frozen shadowing.
func (d *Deployment) meanRSS(t *Tower, pos geo.XY) float64 {
	dist := math.Max(geo.DistM(t.Pos, pos), d.model.RefDistM)
	pl := t.TxDBm - 10*d.model.Exponent*math.Log10(dist/d.model.RefDistM)
	return pl + d.shadow(t.ID, pos)
}

// shadow returns the frozen shadow-fading term for a tower at a position:
// a bilinear interpolation of per-lattice-point Gaussian draws, giving a
// deterministic field with ~ShadowCellM spatial correlation.
func (d *Deployment) shadow(id CellID, pos geo.XY) float64 {
	fx := pos.X / d.model.ShadowCellM
	fy := pos.Y / d.model.ShadowCellM
	x0, y0 := int(math.Floor(fx)), int(math.Floor(fy))
	tx, ty := fx-float64(x0), fy-float64(y0)
	s00 := d.latticeFade(id, x0, y0)
	s10 := d.latticeFade(id, x0+1, y0)
	s01 := d.latticeFade(id, x0, y0+1)
	s11 := d.latticeFade(id, x0+1, y0+1)
	return (s00*(1-tx)+s10*tx)*(1-ty) + (s01*(1-tx)+s11*tx)*ty
}

// latticeFade returns the frozen Gaussian fade at a shadow lattice point.
func (d *Deployment) latticeFade(id CellID, cx, cy int) float64 {
	h := d.seed ^ uint64(id)*0x9e3779b97f4a7c15
	h ^= uint64(uint32(cx)) | uint64(uint32(cy))<<32
	r := stats.NewRNG(h).Fork("shadow")
	return r.Norm(0, d.model.ShadowSigmaDB)
}

// Scan performs one cellular measurement at pos under the given
// condition: it computes each tower's instantaneous RSS, keeps those
// above sensitivity, and returns the strongest MaxVisible ordered by
// descending RSS (ties broken by cell ID for determinism).
func (d *Deployment) Scan(pos geo.XY, cond Condition, rng *stats.RNG) []Reading {
	weather := 0.8 * cond.Weather // global dB offset at weatherSens=1
	var out []Reading
	for i := range d.towers {
		t := &d.towers[i]
		rss := d.meanRSS(t, pos)
		rss -= weather * t.weatherSens
		if cond.OnBus {
			rss -= d.model.BusAttenDB + rng.Norm(0, 0.7)
		}
		rss += rng.Norm(0, d.model.NoiseSigmaDB)
		if rss >= d.model.SensitivityDBm {
			out = append(out, Reading{Cell: t.ID, RSS: rss})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].RSS != out[b].RSS {
			return out[a].RSS > out[b].RSS
		}
		return out[a].Cell < out[b].Cell
	})
	if len(out) > d.model.MaxVisible {
		out = out[:d.model.MaxVisible]
	}
	return out
}

// ScanFingerprint is shorthand for FingerprintOf(Scan(...)).
func (d *Deployment) ScanFingerprint(pos geo.XY, cond Condition, rng *stats.RNG) Fingerprint {
	return FingerprintOf(d.Scan(pos, cond, rng))
}
