package probe

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"busprobe/internal/cellular"
	"busprobe/internal/stats"
)

// genTrip builds a structurally valid random trip.
func genTrip(rng *stats.RNG) Trip {
	trip := Trip{ID: "t", DeviceID: "d"}
	t := rng.Range(0, 1000)
	n := 1 + rng.Intn(20)
	for i := 0; i < n; i++ {
		t += rng.Range(0, 120)
		k := 1 + rng.Intn(7)
		rs := make([]cellular.Reading, k)
		rss := rng.Range(-60, -50)
		for j := range rs {
			rs[j] = cellular.Reading{Cell: cellular.CellID(rng.Intn(1000)), RSS: rss}
			rss -= rng.Range(0, 8)
		}
		trip.Samples = append(trip.Samples, Sample{TimeS: t, Readings: rs})
	}
	return trip
}

func TestValidTripsSurviveJSONProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		trip := genTrip(rng)
		if err := trip.Validate(); err != nil {
			return false
		}
		data, err := json.Marshal(&trip)
		if err != nil {
			return false
		}
		var back Trip
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		if back.Validate() != nil {
			return false
		}
		if len(back.Samples) != len(trip.Samples) {
			return false
		}
		for i := range back.Samples {
			if back.Samples[i].TimeS != trip.Samples[i].TimeS {
				return false
			}
			if !back.Samples[i].Fingerprint().Equal(trip.Samples[i].Fingerprint()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
