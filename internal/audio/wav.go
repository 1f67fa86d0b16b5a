package audio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// WriteWAV encodes a mono float PCM stream ([-1, 1]) as a 16-bit WAV
// file, the debugging escape hatch for the synthetic audio path: dump a
// simulated bus ride and listen to what the detector hears.
func WriteWAV(w io.Writer, pcm []float64, sampleRate int) error {
	if sampleRate <= 0 {
		return fmt.Errorf("audio: non-positive sample rate %d", sampleRate)
	}
	dataLen := len(pcm) * 2
	var header [44]byte
	copy(header[0:4], "RIFF")
	binary.LittleEndian.PutUint32(header[4:8], uint32(36+dataLen))
	copy(header[8:12], "WAVE")
	copy(header[12:16], "fmt ")
	binary.LittleEndian.PutUint32(header[16:20], 16)                   // PCM chunk size
	binary.LittleEndian.PutUint16(header[20:22], 1)                    // PCM format
	binary.LittleEndian.PutUint16(header[22:24], 1)                    // mono
	binary.LittleEndian.PutUint32(header[24:28], uint32(sampleRate))   // sample rate
	binary.LittleEndian.PutUint32(header[28:32], uint32(sampleRate*2)) // byte rate
	binary.LittleEndian.PutUint16(header[32:34], 2)                    // block align
	binary.LittleEndian.PutUint16(header[34:36], 16)                   // bits per sample
	copy(header[36:40], "data")
	binary.LittleEndian.PutUint32(header[40:44], uint32(dataLen))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("audio: write WAV header: %w", err)
	}
	buf := make([]byte, 2)
	for _, v := range pcm {
		s := int16(math.Round(clamp(v, -1, 1) * 32767))
		binary.LittleEndian.PutUint16(buf, uint16(s))
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("audio: write WAV data: %w", err)
		}
	}
	return nil
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}
