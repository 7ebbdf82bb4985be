// Command readersim runs the LLRP reader emulator as a standalone TCP
// server: an ImpinJ-R420 stand-in with a configurable simulated tag
// population. Point any LLRP client at it (tagwatchd, or your own LTK
// code) and drive ROSpecs.
//
// Usage:
//
//	readersim -listen 127.0.0.1:5084 -tags 40 -movers 2 -timescale 1
//
// With -timescale 1 the emulator paces reports in real time; 0 free-runs.
// A reader needs at least one antenna, and tag counts cannot be negative:
// readersim exits with status 2 on -antennas below 1 or a negative -tags
// or -movers.
//
// The -chaos flag interposes the seeded fault injector between clients
// and the emulator — a misbehaving reader on demand:
//
//	readersim -chaos 'seed=42,latency=5ms,corrupt=0.01,blackhole-after=65536'
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"os/signal"

	"tagwatch/internal/chaos"
	"tagwatch/internal/epc"
	"tagwatch/internal/llrp"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:5084", "address to listen on (5084 is the LLRP port)")
		tags      = flag.Int("tags", 40, "stationary tags in the field")
		movers    = flag.Int("movers", 2, "tags on the spinning turntable")
		antennas  = flag.Int("antennas", 1, "reader antenna ports")
		seed      = flag.Int64("seed", 1, "simulation seed")
		timescale = flag.Float64("timescale", 1.0, "wall seconds per virtual second (0 = free-run)")
		chaosSpec = flag.String("chaos", "", "fault injection spec, e.g. 'seed=42,latency=5ms,stall=0.01,truncate=0.01,corrupt=0.01,reset=0.01,blackhole-after=65536,refuse=0.1' (empty = none)")
	)
	flag.Parse()
	if err := checkFlags(*tags, *movers, *antennas); err != nil {
		fmt.Fprintln(os.Stderr, "readersim:", err)
		os.Exit(2)
	}

	rng := rand.New(rand.NewSource(*seed))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	for a := 0; a < *antennas; a++ {
		scn.AddAntenna(rf.Pt(float64(a)*1.5, 0, 2))
	}
	codes, err := epc.RandomPopulation(rng, *tags+*movers, 96)
	if err != nil {
		log.Fatalf("population: %v", err)
	}
	for i, c := range codes[:*movers] {
		scn.AddTag(c, scene.Circle{
			Center:     rf.Pt(1.5, 1.5, 0),
			Radius:     0.2,
			Speed:      0.7,
			StartAngle: float64(i),
		})
	}
	for i, c := range codes[*movers:] {
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.4+float64(i%10)*0.3, 0.4+float64(i/10)*0.3, 0)})
	}

	eng := reader.New(reader.DefaultConfig(), scn)
	srv := llrp.NewServer(eng, llrp.ServerConfig{TimeScale: *timescale})
	ccfg, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		log.Fatalf("-chaos: %v", err)
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	var addr net.Addr
	if *chaosSpec != "" {
		addr = srv.Serve(chaos.New(ccfg).Listener(lis))
	} else {
		addr = srv.Serve(lis)
	}
	fmt.Printf("readersim: LLRP reader emulator on %s (%d tags, %d movers, %d antennas, timescale %.1f)\n",
		addr, *tags, *movers, *antennas, *timescale)
	if *chaosSpec != "" {
		fmt.Printf("readersim: chaos enabled: %s\n", *chaosSpec)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	srv.Close()
	fmt.Println("readersim: shut down")
}

// checkFlags rejects a rig the emulator cannot build: with no antenna
// every ROSpec would end without a round, and a negative count would
// slice the population out of range.
func checkFlags(tags, movers, antennas int) error {
	switch {
	case antennas < 1:
		return fmt.Errorf("-antennas must be at least 1, got %d", antennas)
	case tags < 0:
		return fmt.Errorf("-tags must not be negative, got %d", tags)
	case movers < 0:
		return fmt.Errorf("-movers must not be negative, got %d", movers)
	}
	return nil
}
