// Beepdetect exercises the phone's full sensing path on synthesized
// audio: a bus ride is rendered as a PCM stream with IC-card reader
// beeps at each stop over cabin noise, the Goertzel detector recovers
// the beep times, the accelerometer classifier gates a decoy detection
// at a train station, and the resulting trip record plus the app's
// energy cost are printed.
//
//	go run ./examples/beepdetect
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"busprobe/internal/accel"
	"busprobe/internal/audio"
	"busprobe/internal/phone"
)

func main() {
	log.SetFlags(0)
	wavPath := flag.String("wav", "", "also write the synthesized ride audio to this WAV file")
	flag.Parse()

	// A 2-minute ride fragment: boarding beeps, two stops, then quiet.
	beepTimes := []float64{3.0, 5.5, 42.0, 44.2, 45.8, 95.0}
	synth := audio.DefaultSynthConfig()
	fmt.Printf("synthesizing %d EZ-link beeps (%v Hz tones) over bus cabin noise...\n",
		len(beepTimes), audio.SingaporeBeep.FreqsHz)
	pcm, err := audio.Synthesize(audio.SingaporeBeep, beepTimes, 120, synth)
	if err != nil {
		log.Fatal(err)
	}
	if *wavPath != "" {
		f, err := os.Create(*wavPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := audio.WriteWAV(f, pcm, synth.SampleRate); err != nil {
			f.Close() //lint:allow errcheckio best-effort cleanup; the write error below is fatal anyway
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote ride audio to %s (listen to what the detector hears)\n", *wavPath)
	}

	det, err := audio.NewDetector(audio.SingaporeBeep, synth.SampleRate, audio.DefaultDetectorConfig())
	if err != nil {
		log.Fatal(err)
	}
	events := det.Process(pcm)
	fmt.Printf("Goertzel detector found %d/%d beeps:\n", len(events), len(beepTimes))
	for _, e := range events {
		fmt.Printf("  t=%6.2fs  score=%.0f sigma\n", e.TimeS, e.Score)
	}

	// Mobility gating: the same reader beeps at a rapid-train station
	// must be filtered by the accelerometer variance rule.
	clf := accel.DefaultClassifier()
	for _, mode := range []accel.Mode{accel.ModeBus, accel.ModeTrain} {
		trace, err := accel.Synthesize(mode, accel.DefaultTraceConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("accelerometer on %-5s: variance %.3f (m/s^2)^2 -> classified %v, beeps %s\n",
			mode, clf.Variance(trace), clf.Classify(trace),
			map[bool]string{true: "ACCEPTED", false: "rejected"}[clf.Classify(trace) == accel.ModeBus])
	}

	// Energy: what this sensing costs per hour on the measured phones.
	fmt.Println("\napp energy per hour of riding (Table III profiles):")
	for _, dev := range []phone.DeviceProfile{phone.HTCSensation, phone.NexusOne} {
		app, err := dev.EnergyJ(phone.SettingCellularMicGoertzel, 3600)
		if err != nil {
			log.Fatal(err)
		}
		gps, err := dev.EnergyJ(phone.SettingGPSMicGoertzel, 3600)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-13s deployed app %5.0f J/h vs GPS-based %5.0f J/h (%.1fx)\n",
			dev.Name, app, gps, gps/app)
	}
}
