// Package probe defines the wire format of the participatory sensing
// data: the timestamped cellular samples a rider's phone records at each
// detected IC-card beep, and the trip envelope it uploads to the backend
// (§III-B "the sensing data on the mobile phone thus record a sequence of
// timestamped cellular samples in the trip").
//
// Types here marshal to JSON for the HTTP upload path and are consumed
// directly by the backend pipeline in the in-process path.
package probe

import (
	"fmt"

	"busprobe/internal/cellular"
)

// Sample is one beep-triggered cellular measurement.
type Sample struct {
	// TimeS is the sample timestamp in seconds since campaign start
	// (simulation time).
	TimeS float64 `json:"t"`
	// Readings are the visible cell towers ordered by descending RSS.
	Readings []cellular.Reading `json:"cells"`
}

// Fingerprint returns the ordered cell-ID set of the sample.
func (s Sample) Fingerprint() cellular.Fingerprint {
	return cellular.FingerprintOf(s.Readings)
}

// Trip is one independent bus trip recorded by a rider's phone. Trips
// are anonymous: DeviceID is a random per-install token used only to
// de-duplicate, never to identify.
type Trip struct {
	ID       string   `json:"id"`
	DeviceID string   `json:"device"`
	Samples  []Sample `json:"samples"`
}

// Validate checks structural invariants of an uploaded trip: non-empty,
// time-ordered samples, each with at least one reading in descending RSS
// order. The backend rejects invalid uploads at the door.
func (t *Trip) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("probe: trip without ID")
	}
	if len(t.Samples) == 0 {
		return fmt.Errorf("probe: trip %s has no samples", t.ID)
	}
	prev := -1.0
	for i, s := range t.Samples {
		if s.TimeS < 0 {
			return fmt.Errorf("probe: trip %s sample %d has negative time", t.ID, i)
		}
		if s.TimeS < prev {
			return fmt.Errorf("probe: trip %s samples out of order at %d", t.ID, i)
		}
		prev = s.TimeS
		if len(s.Readings) == 0 {
			return fmt.Errorf("probe: trip %s sample %d has no readings", t.ID, i)
		}
		for j := 1; j < len(s.Readings); j++ {
			if s.Readings[j].RSS > s.Readings[j-1].RSS {
				return fmt.Errorf("probe: trip %s sample %d readings not RSS-ordered", t.ID, i)
			}
		}
	}
	return nil
}
