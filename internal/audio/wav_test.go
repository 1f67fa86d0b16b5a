package audio

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// pcmOf checks the 44-byte header WriteWAV wrote (16-bit mono PCM, data
// length matching the payload) and returns the sample rate and the
// samples scaled back to [-1, 1].
func pcmOf(t *testing.T, b []byte) ([]float64, int) {
	t.Helper()
	if len(b) < 44 || string(b[0:4]) != "RIFF" || string(b[8:12]) != "WAVE" || string(b[36:40]) != "data" {
		t.Fatalf("not a WAV header: %q", b[:min(len(b), 44)])
	}
	if format, channels, bits := binary.LittleEndian.Uint16(b[20:]), binary.LittleEndian.Uint16(b[22:]), binary.LittleEndian.Uint16(b[34:]); format != 1 || channels != 1 || bits != 16 {
		t.Fatalf("format %d, %d channels, %d bits; want 16-bit mono PCM", format, channels, bits)
	}
	data := b[44:]
	if n := binary.LittleEndian.Uint32(b[40:]); int(n) != len(data) {
		t.Fatalf("header data length %d, payload %d bytes", n, len(data))
	}
	pcm := make([]float64, len(data)/2)
	for i := range pcm {
		pcm[i] = float64(int16(binary.LittleEndian.Uint16(data[i*2:]))) / 32767
	}
	return pcm, int(binary.LittleEndian.Uint32(b[24:]))
}

func TestWAVRoundTrip(t *testing.T) {
	cfg := DefaultSynthConfig()
	pcm, err := Synthesize(SingaporeBeep, []float64{0.5}, 2.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, pcm, cfg.SampleRate); err != nil {
		t.Fatal(err)
	}
	back, sr := pcmOf(t, buf.Bytes())
	if sr != cfg.SampleRate {
		t.Errorf("sample rate = %d", sr)
	}
	if len(back) != len(pcm) {
		t.Fatalf("samples = %d, want %d", len(back), len(pcm))
	}
	for i := range back {
		want := math.Max(-1, math.Min(1, pcm[i]))
		if math.Abs(back[i]-want) > 1.0/32000 {
			t.Fatalf("sample %d: %v vs %v", i, back[i], want)
		}
	}
}

func TestWAVSurvivesDetection(t *testing.T) {
	// The acoustic path through a WAV file must still detect beeps.
	cfg := DefaultSynthConfig()
	pcm, err := Synthesize(SingaporeBeep, []float64{2.0, 4.0}, 6.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, pcm, cfg.SampleRate); err != nil {
		t.Fatal(err)
	}
	back, sr := pcmOf(t, buf.Bytes())
	det, err := NewDetector(SingaporeBeep, sr, DefaultDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	events := det.Process(back)
	if len(events) != 2 {
		t.Errorf("detected %d beeps after WAV round trip", len(events))
	}
}

func TestWAVClampsOverdrive(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, []float64{2, -3, 0.5}, 8000); err != nil {
		t.Fatal(err)
	}
	back, _ := pcmOf(t, buf.Bytes())
	if back[0] < 0.99 || back[1] > -0.99 {
		t.Errorf("overdrive not clamped: %v", back[:2])
	}
}

func TestWAVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, []float64{0}, 0); err == nil {
		t.Error("want error for zero sample rate")
	}
}
