package tagwatch_test

// The grand integration test: the complete stack, end to end, over real
// TCP — scene → Gen2 link layer → reader engine → LLRP emulator ⇄ LLRP
// client → Tagwatch middleware — asserting the paper's headline behaviour
// (movers' reading rates multiply while parked tags are suppressed).

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/llrp"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
)

func TestFullStackOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack integration")
	}
	// World: 24 parked items and 2 on a turntable, one antenna.
	rng := rand.New(rand.NewSource(99))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	codes, err := epc.SGTINPopulation(703710, 777000, 5, 100, 26)
	if err != nil {
		t.Fatal(err)
	}
	movers := codes[:2]
	for i, c := range movers {
		scn.AddTag(c, scene.Circle{Center: rf.Pt(1.5, 1.5, 0), Radius: 0.2, Speed: 0.7, StartAngle: float64(i)})
	}
	for i, c := range codes[2:] {
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.4+float64(i%8)*0.3, 0.4+float64(i/8)*0.3, 0)})
	}

	// Reader emulator behind TCP.
	rcfg := reader.DefaultConfig()
	rcfg.HopEvery = 0 // single channel keeps the warm-up short for CI
	srv := llrp.NewServer(reader.New(rcfg, scn), llrp.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, err := llrp.Dial(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The reader advertises itself.
	caps, err := conn.GetCapabilities(ctx)
	if err != nil || caps.MaxAntennas != 1 || !caps.SupportsPhaseReporting {
		t.Fatalf("capabilities: %+v, %v", caps, err)
	}

	// The middleware over the wire.
	cfg := core.DefaultConfig()
	cfg.PhaseIIDwell = time.Second
	cfg.StickyFor = 3 * time.Second
	tw := core.New(cfg, core.NewLLRPDevice(conn))

	isMover := map[epc.EPC]bool{movers[0]: true, movers[1]: true}
	var converged *core.CycleReport
	for i := 0; i < 12; i++ {
		rep := tw.RunCycle()
		if rep.FellBack {
			continue
		}
		allMoversTargeted := true
		for _, m := range movers {
			found := false
			for _, c := range rep.Targets {
				if c == m {
					found = true
				}
			}
			allMoversTargeted = allMoversTargeted && found
		}
		if allMoversTargeted && len(rep.Targets) <= 6 {
			converged = &rep
			break
		}
	}
	if converged == nil {
		t.Fatal("middleware never converged to selective reading of the movers")
	}

	// Headline behaviour: per-tag, the movers are read far more often in
	// Phase II than the parked majority. (With a same-product SGTIN
	// population the cost model may legitimately choose one broad mask —
	// collateral coverage is cheap — so the asymmetry is per tag, not in
	// absolute counts.)
	var moverReads, otherReads int
	for _, r := range converged.PhaseIIReads {
		if isMover[r.EPC] {
			moverReads++
		} else {
			otherReads++
		}
	}
	perMover := float64(moverReads) / 2
	perParked := float64(otherReads) / 24
	if moverReads < 10 || perMover < 2*perParked {
		t.Fatalf("phase II per-tag reads: mover %.1f vs parked %.1f", perMover, perParked)
	}

	// The bitmask plan is real and cheap.
	if len(converged.Plan.Masks) == 0 || converged.Plan.TotalCost > converged.Plan.NaiveCost {
		t.Fatalf("plan: %+v", converged.Plan)
	}

	// And the per-tag history shows the rate asymmetry.
	moverIRR := tw.History().IRR(movers[0])
	parkedIRR := tw.History().IRR(codes[10])
	if moverIRR <= parkedIRR {
		t.Fatalf("mover IRR %.1f must exceed parked IRR %.1f", moverIRR, parkedIRR)
	}
}
