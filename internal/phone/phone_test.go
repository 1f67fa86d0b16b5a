package phone

import (
	"context"
	"math"
	"testing"

	"busprobe/internal/accel"
	"busprobe/internal/cellular"
	"busprobe/internal/probe"
	"busprobe/internal/stats"
)

// fakeScanner returns a fixed reading set.
type fakeScanner struct {
	readings []cellular.Reading
}

func (f *fakeScanner) ScanAt(timeS float64) []cellular.Reading { return f.readings }

// sink collects uploaded trips.
type sink struct {
	trips []probe.Trip
}

func (s *sink) Upload(_ context.Context, t probe.Trip) error {
	s.trips = append(s.trips, t)
	return nil
}

func newAgent(t *testing.T, up Uploader) *Agent {
	t.Helper()
	sc := &fakeScanner{readings: []cellular.Reading{{Cell: 1, RSS: -70}, {Cell: 2, RSS: -80}}}
	a, err := NewAgent(DefaultAgentConfig("dev1"), sc, up)
	if err != nil {
		t.Fatal(err)
	}
	a.SetMobilityMode(accel.ModeBus)
	return a
}

func TestAgentValidation(t *testing.T) {
	sc := &fakeScanner{}
	up := &sink{}
	if _, err := NewAgent(AgentConfig{DeviceID: "", IdleTimeoutS: 1}, sc, up); err == nil {
		t.Error("want error for empty device ID")
	}
	if _, err := NewAgent(AgentConfig{DeviceID: "d", IdleTimeoutS: 0}, sc, up); err == nil {
		t.Error("want error for zero timeout")
	}
	if _, err := NewAgent(DefaultAgentConfig("d"), nil, up); err == nil {
		t.Error("want error for nil scanner")
	}
	if _, err := NewAgent(DefaultAgentConfig("d"), sc, nil); err == nil {
		t.Error("want error for nil uploader")
	}
}

func TestTripLifecycle(t *testing.T) {
	up := &sink{}
	a := newAgent(t, up)
	a.OnBeep(100)
	if a.current == nil {
		t.Fatal("trip should be open after beep")
	}
	a.OnBeep(160)
	a.OnBeep(220)
	a.Tick(context.Background(), 300) // still within idle timeout
	if a.current == nil {
		t.Fatal("trip closed too early")
	}
	a.Tick(context.Background(), 220+DefaultIdleTimeoutS)
	if a.current != nil {
		t.Fatal("trip should have concluded")
	}
	if len(up.trips) != 1 {
		t.Fatalf("uploaded %d trips", len(up.trips))
	}
	trip := up.trips[0]
	if len(trip.Samples) != 3 {
		t.Errorf("samples = %d", len(trip.Samples))
	}
	if trip.DeviceID != "dev1" || trip.ID == "" {
		t.Errorf("identity wrong: %+v", trip)
	}
	if err := trip.Validate(); err != nil {
		t.Errorf("uploaded trip invalid: %v", err)
	}
}

func TestSeparateTripsGetDistinctIDs(t *testing.T) {
	up := &sink{}
	a := newAgent(t, up)
	a.OnBeep(100)
	a.Tick(context.Background(), 100+DefaultIdleTimeoutS)
	a.OnBeep(5000)
	a.Tick(context.Background(), 5000+DefaultIdleTimeoutS)
	if len(up.trips) != 2 {
		t.Fatalf("trips = %d", len(up.trips))
	}
	if up.trips[0].ID == up.trips[1].ID {
		t.Error("trip IDs not distinct")
	}
}

func TestTrainModeFiltersBeeps(t *testing.T) {
	up := &sink{}
	a := newAgent(t, up)
	a.SetMobilityMode(accel.ModeTrain)
	a.OnBeep(100)
	if a.current != nil {
		t.Fatal("train beep started a trip")
	}
	// Back on a bus, beeps record again.
	a.SetMobilityMode(accel.ModeBus)
	a.OnBeep(200)
	if a.current == nil {
		t.Fatal("bus beep ignored")
	}
	// Train beeps do not extend an open trip either.
	a.SetMobilityMode(accel.ModeTrain)
	a.OnBeep(300)
	a.Flush(context.Background())
	if len(up.trips) != 1 || len(up.trips[0].Samples) != 1 {
		t.Fatalf("trips = %+v", up.trips)
	}
}

func TestNoCoverageSkipsSample(t *testing.T) {
	up := &sink{}
	sc := &fakeScanner{readings: nil}
	a, err := NewAgent(DefaultAgentConfig("d"), sc, up)
	if err != nil {
		t.Fatal(err)
	}
	a.SetMobilityMode(accel.ModeBus)
	a.OnBeep(10)
	if a.current != nil {
		t.Error("trip opened with no cellular coverage")
	}
}

func TestFlushUploadsOpenTrip(t *testing.T) {
	up := &sink{}
	a := newAgent(t, up)
	a.OnBeep(10)
	a.Flush(context.Background())
	if len(up.trips) != 1 {
		t.Fatalf("trips = %d", len(up.trips))
	}
	a.Flush(context.Background()) // idempotent
	if len(up.trips) != 1 {
		t.Error("double flush re-uploaded")
	}
}

func TestTableIIIProfiles(t *testing.T) {
	for _, d := range []DeviceProfile{HTCSensation, NexusOne} {
		for _, s := range TableIIISettings {
			if _, ok := d.MeanMW[s]; !ok {
				t.Errorf("%s missing %v", d.Name, s)
			}
		}
		// GPS settings dominate cellular ones by roughly 4x (the
		// paper's core energy argument).
		if d.MeanMW[SettingGPS] < 3*d.MeanMW[SettingCellular] {
			t.Errorf("%s: GPS %v not ≫ cellular %v", d.Name,
				d.MeanMW[SettingGPS], d.MeanMW[SettingCellular])
		}
		if d.MeanMW[SettingGPSMicGoertzel] < 4*d.MeanMW[SettingCellularMicGoertzel] {
			t.Errorf("%s: app-with-GPS not ≫ app", d.Name)
		}
		// FFT costs the documented 6 mW over Goertzel.
		if diff := d.MeanMW[SettingCellularMicFFT] - d.MeanMW[SettingCellularMicGoertzel]; diff != GoertzelSavingMW {
			t.Errorf("%s: FFT delta = %v", d.Name, diff)
		}
	}
}

func TestMeasureMatchesProfile(t *testing.T) {
	rng := stats.NewRNG(3)
	m, err := HTCSensation.Measure(SettingCellularMicGoertzel, 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MeanMW-82) > 3 {
		t.Errorf("measured mean = %v, want ~82", m.MeanMW)
	}
	want := 82 * HTCSensation.RelSD[SettingCellularMicGoertzel]
	if math.Abs(m.SDMW-want) > want {
		t.Errorf("measured sd = %v, want ~%v", m.SDMW, want)
	}
}

func TestMeasureErrors(t *testing.T) {
	rng := stats.NewRNG(4)
	if _, err := HTCSensation.Measure(SensorSetting(99), 600, rng); err == nil {
		t.Error("want error for unknown setting")
	}
	if _, err := HTCSensation.Measure(SettingGPS, 0, rng); err == nil {
		t.Error("want error for zero duration")
	}
}

func TestEnergyJ(t *testing.T) {
	j, err := NexusOne.EnergyJ(SettingCellular, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-85.0/1000*3600) > 1e-9 {
		t.Errorf("energy = %v", j)
	}
	if _, err := NexusOne.EnergyJ(SensorSetting(99), 10); err == nil {
		t.Error("want error for unknown setting")
	}
}

func TestSettingString(t *testing.T) {
	if SettingCellularMicGoertzel.String() != "Cellular+Mic(Goertzel)" {
		t.Error("setting label wrong")
	}
	if SensorSetting(42).String() != "setting(42)" {
		t.Error("unknown setting label wrong")
	}
}

// TestBeepClockMonotonic: a beep presented earlier than the last
// recorded one (overlapping reader dwell windows in a simulation, or a
// replayed event stream) is stamped at the device's monotonic clock,
// so the concluded trip always passes sample-order validation.
func TestBeepClockMonotonic(t *testing.T) {
	up := &sink{}
	a := newAgent(t, up)
	a.OnBeep(100)
	a.OnBeep(160)
	a.OnBeep(140) // presented out of order: clamped to 160
	a.OnBeep(170)
	a.Tick(context.Background(), 170+DefaultIdleTimeoutS)
	if len(up.trips) != 1 {
		t.Fatalf("uploaded %d trips", len(up.trips))
	}
	trip := up.trips[0]
	if err := trip.Validate(); err != nil {
		t.Fatalf("trip with clamped sample invalid: %v", err)
	}
	if got := trip.Samples[2].TimeS; got != 160 {
		t.Errorf("clamped sample stamped %v, want 160", got)
	}
	if got := trip.Samples[3].TimeS; got != 170 {
		t.Errorf("later sample stamped %v, want 170", got)
	}
}
