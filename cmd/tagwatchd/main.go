// Command tagwatchd runs the Tagwatch middleware against an LLRP reader
// (real or emulated) and prints per-cycle summaries: who is present, who
// is moving, which bitmasks Phase II scheduled, and the resulting per-tag
// reading rates.
//
// Usage:
//
//	tagwatchd -reader 127.0.0.1:5084 -cycles 10 -dwell 5s
//	tagwatchd -reader 127.0.0.1:5084 -pin 30f4ab12cd0045e100000001
//
// SIGINT/SIGTERM stop the cycle loop cleanly: durable state (-state-dir)
// gets its final snapshot and the lifetime metrics still print. With
// -state-dir every cycle's changes are journaled to stable storage
// before the next cycle starts, so even a SIGKILL loses at most the
// in-flight cycle.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/llrp"
	"tagwatch/internal/statestore"
)

func main() {
	var (
		readerAddr  = flag.String("reader", "127.0.0.1:5084", "LLRP reader address")
		cycles      = flag.Int("cycles", 10, "reading cycles to run (0 = forever)")
		dialTimeout = flag.Duration("dial-timeout", 10*time.Second, "LLRP connect timeout")
		keepalive   = flag.Duration("keepalive", 5*time.Second, "reader keepalive period; a session silent for 3 periods dies with a watchdog error (0 = no watchdog)")
		opTimeout   = flag.Duration("op-timeout", 10*time.Second, "per-operation LLRP request/response deadline")
		pins        = flag.String("pin", "", "comma-separated EPCs to always schedule")
		stateDir    = flag.String("state-dir", "", "durable state directory: crash-safe snapshots + per-cycle journal")
		snapEvery   = flag.Duration("snapshot-interval", time.Minute, "with -state-dir, time between full snapshots (journal appends cover every cycle in between)")
		maxTags     = flag.Int("max-tags", 0, "motion-model capacity bound; first contact past the cap evicts the stalest tracked tag (0 = unbounded)")
	)
	loadConfig := core.ConfigFlags(flag.CommandLine)
	flag.Parse()

	cfg, err := loadConfig()
	if err != nil {
		log.Fatalf("config: %v", err)
	}
	cfg.Motion.MaxTags = *maxTags
	if *pins != "" {
		for _, s := range strings.Split(*pins, ",") {
			code, err := epc.Parse(strings.TrimSpace(s))
			if err != nil {
				log.Fatalf("bad -pin EPC %q: %v", s, err)
			}
			cfg.Pinned = append(cfg.Pinned, code)
		}
	}

	// The signal-aware context makes interruption graceful: the cycle loop
	// stops at the next cycle boundary and every deferred save still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dctx, cancel := context.WithTimeout(ctx, *dialTimeout)
	conn, err := llrp.Dial(dctx, *readerAddr)
	cancel()
	if err != nil {
		log.Fatalf("connect: %v", err)
	}
	defer conn.Close()
	fmt.Printf("tagwatchd: connected to %s\n", *readerAddr)
	conn.SetOpTimeout(*opTimeout)
	if *keepalive > 0 {
		kctx, kcancel := context.WithTimeout(ctx, *dialTimeout)
		err := conn.StartKeepalive(kctx, *keepalive, 3)
		kcancel()
		if err != nil {
			log.Fatalf("keepalive setup: %v", err)
		}
	}

	// A signal mid-cycle closes the connection, which aborts the in-flight
	// ROSpec wait instead of riding out the dwell.
	unblock := context.AfterFunc(ctx, func() { conn.Close() })
	defer unblock()

	dev := core.NewLLRPDevice(conn)
	tw := core.New(cfg, dev)
	var st *statestore.Store
	if *stateDir != "" {
		st, err = statestore.Open(*stateDir, statestore.Options{})
		if err != nil {
			log.Fatalf("state dir: %v", err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("state close: %v", err)
			}
		}()
		if err := st.Restore(tw); err != nil {
			log.Fatalf("state restore: %v", err)
		}
		if rec := st.Recovery(); rec.HasSnapshot || len(rec.Records) > 0 {
			fmt.Printf("tagwatchd: resumed durable state from %s (snapshot gen %d + %d journal records)\n",
				*stateDir, rec.SnapshotGen, len(rec.Records))
		}
		// Runs before the store Close above (LIFO): the save-on-SIGTERM
		// path — the signal context ends the loop, this writes the final
		// snapshot generation.
		defer func() {
			if err := st.Snapshot(tw); err != nil {
				log.Printf("final snapshot: %v", err)
			}
		}()
	}

	defer func() {
		m := tw.Metrics()
		if m.Cycles == 0 {
			return
		}
		fmt.Printf("tagwatchd: %d cycles (%d fallbacks), %d+%d readings, %d targets scheduled, mean schedule cost %v\n",
			m.Cycles, m.Fallbacks, m.PhaseIReadings, m.PhaseIIReadings,
			m.TargetsScheduled, (m.ScheduleCostTotal / time.Duration(m.Cycles)).Round(time.Microsecond))
	}()

	lastSnap := time.Now()
	for i := 0; *cycles == 0 || i < *cycles; i++ {
		if ctx.Err() != nil {
			fmt.Println("tagwatchd: interrupted, saving state")
			return
		}
		rep := tw.RunCycle()
		if st != nil {
			var perr error
			if *snapEvery > 0 && time.Since(lastSnap) >= *snapEvery {
				perr = st.Snapshot(tw)
				lastSnap = time.Now()
			} else {
				perr = st.Journal(tw)
			}
			if perr != nil {
				log.Printf("cycle %d state persist: %v", i, perr)
			}
		}
		mode := "selective"
		if rep.FellBack {
			mode = "read-all (fallback)"
		}
		fmt.Printf("cycle %d: %d present, %d mobile, %d targets → %s, %d masks, %d+%d readings (schedule cost %v)\n",
			i, len(rep.Present), len(rep.Mobile), len(rep.Targets), mode,
			len(rep.Plan.Masks), len(rep.PhaseIReads), len(rep.PhaseIIReads),
			rep.ScheduleCost.Round(time.Microsecond))
		if rep.Err != nil {
			log.Printf("cycle %d DEGRADED: %v", i, rep.Err)
			if conn.Err() != nil && ctx.Err() == nil {
				log.Fatalf("connection lost: %v", conn.Err())
			}
		}
		for _, m := range rep.Plan.Masks {
			fmt.Printf("    mask %s covering %d tag(s)\n", m.Bitmask, m.Covered)
		}
		for _, code := range rep.Targets {
			fmt.Printf("    target %s IRR≈%.1f Hz (lifetime reads %d)\n",
				code, tw.History().IRR(code), tw.History().Total(code))
		}
	}
}
