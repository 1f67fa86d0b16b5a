// Package paperconst_a is the cross-package fixture for the
// paperconst analyzer: it plays the role of a consumer package
// re-stating the canonical ICDCS'15 constants as literals instead of
// referencing the named defaults in their defining packages.
package paperconst_a

import (
	"busprobe/internal/core/cluster"
	"busprobe/internal/core/fingerprint"
	"busprobe/internal/core/traffic"
)

// tuned shadows all three Eq. 1 clustering constants at once.
func tuned() cluster.Params {
	return cluster.Params{
		S0:      7,   // want `paper constant S0 spelled as a literal`
		T0:      30,  // want `paper constant T0 spelled as a literal`
		Epsilon: 0.6, // want `paper constant Epsilon spelled as a literal`
	}
}

// offCanon is flagged too: a divergent literal outside the defining
// package is hand-tuning in the wrong place, canonical value or not.
func offCanon() cluster.Params {
	p := cluster.DefaultParams()
	p.T0 = 45                            // assignments through the named default are fine
	return cluster.Params{Epsilon: -0.2} // want `paper constant Epsilon`
}

func model() traffic.Model {
	return traffic.Model{B: 0.5} // want `paper constant B spelled as a literal`
}

func db() (*fingerprint.DB, error) {
	return fingerprint.NewDB(fingerprint.DefaultScoring(), 2, nil) // want `paper constant passed as a literal; use fingerprint\.DefaultGamma`
}

func estimator(m traffic.Model) (*traffic.Estimator, error) {
	return traffic.NewEstimator(m, 300, 0.02) // want `paper constant passed as a literal; use traffic\.DefaultPeriodS`
}

// clean references the named defaults — nothing to flag.
func clean() (cluster.Params, traffic.Model, float64) {
	return cluster.DefaultParams(), traffic.DefaultModel(), fingerprint.DefaultGamma
}

// justified keeps a literal with an explanation.
func justified() traffic.Model {
	return traffic.Model{B: 0.55} //lint:allow paperconst per-segment regression fit from Fig. 7, not the system-wide b
}
