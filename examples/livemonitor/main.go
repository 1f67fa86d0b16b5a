// Livemonitor runs the full networked deployment on loopback: the
// backend serves its HTTP API, simulated rider phones upload trips over
// real HTTP, and a monitoring client polls the live traffic map —
// exactly the production topology, all in one process.
//
//	go run ./examples/livemonitor
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/server"
	"busprobe/internal/sim"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// City + fingerprint survey.
	worldCfg := sim.DefaultWorldConfig()
	world, err := sim.BuildWorld(worldCfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg := server.DefaultConfig()
	fpdb, err := server.BuildFingerprintDB(world.Cells, world.Transit, 4, cfg, server.SurveySeed(worldCfg.Seed))
	if err != nil {
		log.Fatal(err)
	}
	backend, err := server.NewBackend(cfg, world.Transit, fpdb)
	if err != nil {
		log.Fatal(err)
	}

	// Serve the real HTTP API on an ephemeral loopback port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.Handler(backend)}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Print(err)
		}
	}()
	defer srv.Close()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("backend listening at %s\n", baseURL)

	// Phones upload through the network path.
	client, err := server.NewClient(baseURL, &http.Client{Timeout: 5 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	if !client.Healthy(ctx) {
		log.Fatal("backend unhealthy")
	}

	campCfg := sim.DefaultCampaignConfig()
	campCfg.Days = 1
	campCfg.Participants = 22
	campCfg.IntensiveFromDay = 0
	camp, err := sim.NewCampaign(world, campCfg, client, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Drive the backend clock and poll the live map every simulated
	// half hour, like a monitoring dashboard would.
	var lastPoll float64
	camp.MinuteHook = func(tS float64) {
		backend.Advance(tS)
		if tS-lastPoll >= 1800 {
			lastPoll = tS
			rows, err := client.Traffic(ctx)
			if err != nil {
				log.Print(err)
				return
			}
			st, err := client.Stats(ctx)
			if err != nil {
				log.Print(err)
				return
			}
			fmt.Printf("%s  trips=%3d  mapped-visits=%4d  estimated-segments=%3d\n",
				clock.Stamp(tS), st.TripsReceived, st.VisitsMapped, len(rows))
		}
	}
	fmt.Println("running one simulated day of uploads over HTTP...")
	if _, err := camp.Run(ctx); err != nil {
		log.Fatal(err)
	}

	rows, err := client.Traffic(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal live traffic map (%d segments); first 8:\n", len(rows))
	for i, r := range rows {
		if i == 8 {
			break
		}
		fmt.Printf("  segment %4d: %5.1f km/h (%s, %d reports)\n",
			r.Segment, r.SpeedKmh, r.Level, r.Reports)
	}
}
