// Arrivals demonstrates the §VI extension stack: after half a simulated
// day of rider participation, the live traffic map answers "when does my
// bus get here?" — the bus-arrival application the authors built the
// system to feed — and summarizes region-wide congestion inferred from
// the covered corridors. Both reads are functions of one traffic
// snapshot (server.RegionModel, server.PredictArrivals), so they work
// over any server.API — this in-process backend or a sharded coordinator.
//
//	go run ./examples/arrivals
package main

import (
	"busprobe/internal/clock"
	"context"
	"fmt"
	"log"

	"busprobe"
	"busprobe/internal/server"
	"busprobe/internal/sim"
)

func main() {
	log.SetFlags(0)

	sys, err := busprobe.New(busprobe.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	camp := sim.DefaultCampaignConfig()
	camp.Days = 1
	camp.IntensiveFromDay = 0
	fmt.Println("collecting one day of rider data...")
	if _, err := sys.RunCampaign(context.Background(), camp); err != nil {
		log.Fatal(err)
	}
	backend := sys.Backend()

	// Region-wide congestion from the covered segments.
	model, err := server.RegionModel(backend)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nregion: congestion index %.2f of design speed, %d zones with direct coverage\n",
		model.OverallIndex(), model.CoveredZones())

	// Arrival predictions for the first three routes at evening rush.
	departS := 18 * 3600.0
	for _, rt := range sys.World().Transit.Routes()[:3] {
		preds, err := server.PredictArrivals(backend, rt.ID, 0, departS)
		if err != nil {
			log.Fatal(err)
		}
		last := preds[len(preds)-1]
		fmt.Printf("\nroute %s departing stop 0 at %s:\n", rt.ID, clock.Stamp(departS))
		for i, p := range preds {
			if i < 3 || i == len(preds)-1 {
				fmt.Printf("  stop %2d: ETA %s (%.0f%% of drive time from live data)\n",
					p.StopIdx, clock.Stamp(p.ArriveS), 100*p.CoveredFrac)
			} else if i == 3 {
				fmt.Printf("  ...\n")
			}
		}
		fmt.Printf("  end-to-end: %.0f minutes\n", (last.ArriveS-departS)/60)
	}
}
