package clock

import (
	"fmt"
	"math"
)

// Virtual-time helpers for the simulated deployment. The simulator, the
// evaluation harness, and the examples all run on one virtual clock —
// float64 seconds since campaign start — and these helpers are its
// single home (they used to live in internal/sim, which left the repo
// with two clock vocabularies).

// Time constants of the virtual clock.
const (
	// DayS is one simulated day in seconds.
	DayS = 86400.0
	// ServiceStartS is when the simulated city's buses start running
	// (06:00).
	ServiceStartS = 6 * 3600.0
	// ServiceEndS is when bus service ends (23:00).
	ServiceEndS = 23 * 3600.0
)

// TimeOfDayS maps an absolute simulation time to seconds since midnight.
func TimeOfDayS(t float64) float64 {
	tod := math.Mod(t, DayS)
	if tod < 0 {
		tod += DayS
	}
	return tod
}

// HourOfDay maps an absolute simulation time to fractional hours since
// midnight.
func HourOfDay(t float64) float64 { return TimeOfDayS(t) / 3600 }

// DayIndex returns the zero-based simulated day of an absolute time.
func DayIndex(t float64) int { return int(math.Floor(t / DayS)) }

// Stamp renders an absolute virtual time as "d2 08:30" for reports.
func Stamp(t float64) string {
	tod := TimeOfDayS(t)
	return fmt.Sprintf("d%d %02d:%02d", DayIndex(t), int(tod/3600), int(tod/60)%60)
}
