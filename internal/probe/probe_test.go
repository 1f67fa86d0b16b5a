package probe

import (
	"encoding/json"
	"testing"

	"busprobe/internal/cellular"
)

func sample(t float64, cells ...int) Sample {
	rs := make([]cellular.Reading, len(cells))
	for i, c := range cells {
		rs[i] = cellular.Reading{Cell: cellular.CellID(c), RSS: -60 - float64(i)}
	}
	return Sample{TimeS: t, Readings: rs}
}

func validTrip() Trip {
	return Trip{
		ID:       "trip-1",
		DeviceID: "dev-1",
		Samples:  []Sample{sample(10, 1, 2), sample(20, 3, 4)},
	}
}

func TestValidateOK(t *testing.T) {
	trip := validTrip()
	if err := trip.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]func(*Trip){
		"no id":         func(tr *Trip) { tr.ID = "" },
		"no samples":    func(tr *Trip) { tr.Samples = nil },
		"negative time": func(tr *Trip) { tr.Samples[0].TimeS = -1 },
		"out of order":  func(tr *Trip) { tr.Samples[1].TimeS = 5 },
		"no readings":   func(tr *Trip) { tr.Samples[0].Readings = nil },
		"rss unordered": func(tr *Trip) { tr.Samples[0].Readings[0].RSS = -99 },
	}
	for name, mutate := range cases {
		trip := validTrip()
		mutate(&trip)
		if err := trip.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestFingerprint(t *testing.T) {
	s := sample(1, 7, 8, 9)
	fp := s.Fingerprint()
	if !fp.Equal(cellular.Fingerprint{7, 8, 9}) {
		t.Errorf("fingerprint = %v", fp)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	trip := validTrip()
	data, err := json.Marshal(&trip)
	if err != nil {
		t.Fatal(err)
	}
	var back Trip
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != trip.ID || len(back.Samples) != len(trip.Samples) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Samples[0].Readings[0].Cell != 1 {
		t.Error("readings lost")
	}
	if err := back.Validate(); err != nil {
		t.Error(err)
	}
}
