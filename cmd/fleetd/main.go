// Command fleetd supervises a fleet of LLRP readers and serves the merged
// result over HTTP: per-reader Tagwatch cycles with automatic reconnects,
// one registry keyed by EPC, an SSE event stream, health, and Prometheus
// metrics.
//
// Usage:
//
//	fleetd -readers 10.0.0.11:5084,10.0.0.12:5084 -http :8080
//	fleetd -readers aisle1=10.0.0.11:5084,aisle2=10.0.0.12:5084 -dwell 2s
//
// Then:
//
//	curl localhost:8080/api/readers
//	curl localhost:8080/api/tags?mobile=1
//	curl -N localhost:8080/api/events
//	curl localhost:8080/metrics
//
// A durable node (-state-dir) can stream its registry to hot standbys,
// and a standby can take over when the primary host dies:
//
//	fleetd -readers ... -state-dir /var/lib/tagwatch -replicate-to standby:5091
//	fleetd -standby -state-dir /var/lib/tagwatch-standby -listen-replication :5091 \
//	       -readers ... -promote-on-signal     # SIGUSR1 promotes to a live fleet
//
// Exit codes — init systems and drills branch on these, so every
// distinct failure class gets its own:
//
//	0  clean shutdown, final registry state saved
//	1  runtime failure (could not start, listen, or serve)
//	2  usage or configuration error (bad flags, unreadable -config)
//	3  served fine but the final save failed: the durable directory is
//	   behind the live state this node answered with (exited unclean)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/fleet"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		readers     = flag.String("readers", "", "comma-separated LLRP readers, each ADDR or NAME=ADDR")
		httpAddr    = flag.String("http", ":8080", "HTTP listen address")
		cyclePause  = flag.Duration("cycle-pause", 0, "idle time between cycles on each reader")
		dialTimeout = flag.Duration("dial-timeout", 5*time.Second, "per-attempt LLRP connect timeout")
		backoffBase = flag.Duration("backoff-base", 500*time.Millisecond, "initial reconnect backoff")
		backoffMax  = flag.Duration("backoff-max", 30*time.Second, "reconnect backoff ceiling")
		maxFailures = flag.Int("max-failures", 0, "consecutive failures before a reader goes down for good (0 = retry forever)")
		keepalive   = flag.Duration("keepalive", 5*time.Second, "reader keepalive period; the watchdog kills a session silent for keepalive-misses periods (0 = no watchdog)")
		kaMisses    = flag.Int("keepalive-misses", 3, "missed keepalive periods before a session is declared dead")
		opTimeout   = flag.Duration("op-timeout", 10*time.Second, "per-operation LLRP request/response deadline")
		cycleErrs   = flag.Int("cycle-error-limit", 3, "consecutive failing cycles before forcing a reconnect")
		quiet       = flag.Bool("quiet", false, "suppress per-event logging")
		stateDir    = flag.String("state-dir", "", "durable registry directory: crash-safe snapshots + journal, restored on start, saved on shutdown")
		snapEvery   = flag.Duration("snapshot-interval", time.Minute, "with -state-dir, time between full registry snapshots")
		flushEvery  = flag.Duration("journal-flush", 2*time.Second, "with -state-dir, time between incremental journal flushes (the durability lag a crash can lose)")

		replicateTo = flag.String("replicate-to", "", "comma-separated standby addresses to stream the durable registry to (requires -state-dir)")
		standby     = flag.Bool("standby", false, "run as a hot standby: apply a primary's replication stream into -state-dir; serves status only until promoted")
		listenRepl  = flag.String("listen-replication", ":5091", "with -standby, address to accept the primary's replication stream on")
		promoteSig  = flag.Bool("promote-on-signal", false, "with -standby, promote to a live fleet (using -readers and the rest of the flags) on SIGUSR1")

		maxTags       = flag.Int("max-tags", 0, "registry capacity bound; at the cap the stalest tag is evicted for each new arrival (0 = unbounded)")
		quarK         = flag.Int("quarantine-k", 0, "sightings within the quarantine window before a new EPC is believed; filters one-off ghost decodes (0/1 = off)")
		quarWindow    = flag.Duration("quarantine-window", 10*time.Second, "how long quarantine remembers a probationary EPC between sightings")
		quarCap       = flag.Int("quarantine-cap", 65536, "fixed size of the probationary ring; overflow displaces the oldest suspect")
		apiRate       = flag.Float64("api-rate", 0, "API requests/second allowed per client IP (0 = no rate limit)")
		apiBurst      = flag.Float64("api-burst", 0, "token-bucket burst per client IP (0 = 2x rate)")
		apiMaxConc    = flag.Int("api-max-concurrent", 0, "ceiling for the adaptive API concurrency limit (0 = no concurrency limit)")
		maxSSE        = flag.Int("max-sse", 64, "concurrent /api/events subscribers before new streams get 503")
		restartBudget = flag.Int("restart-budget", 5, "contained panics per window before a supervisor is tripped for good")
		restartWindow = flag.Duration("restart-window", time.Minute, "sliding window for the panic-restart budget")
	)
	loadConfig := core.ConfigFlags(flag.CommandLine)
	flag.Parse()

	if *standby {
		if *stateDir == "" {
			log.Print("fleetd: -standby requires -state-dir (the replicated store is what gets promoted)")
			return 2
		}
	} else if *readers == "" {
		log.Print("fleetd: -readers is required (e.g. -readers 10.0.0.11:5084,10.0.0.12:5084)")
		return 2
	}
	if *replicateTo != "" && *stateDir == "" {
		log.Print("fleetd: -replicate-to requires -state-dir (replication ships the durable journal)")
		return 2
	}

	cfg := fleet.DefaultConfig()
	tw, err := loadConfig()
	if err != nil {
		log.Printf("config: %v", err)
		return 2
	}
	cfg.Tagwatch = tw
	cfg.DialTimeout = *dialTimeout
	cfg.BackoffBase = *backoffBase
	cfg.BackoffMax = *backoffMax
	cfg.MaxFailures = *maxFailures
	cfg.CyclePause = *cyclePause
	cfg.KeepalivePeriod = *keepalive
	cfg.KeepaliveMisses = *kaMisses
	cfg.OpTimeout = *opTimeout
	cfg.CycleErrorLimit = *cycleErrs
	cfg.StateDir = *stateDir
	cfg.SnapshotInterval = *snapEvery
	cfg.JournalFlush = *flushEvery
	cfg.MaxTags = *maxTags
	cfg.Tagwatch.Motion.MaxTags = *maxTags // bound the per-reader motion models too
	cfg.QuarantineK = *quarK
	cfg.QuarantineWindow = *quarWindow
	cfg.QuarantineCap = *quarCap
	cfg.APIRate = *apiRate
	cfg.APIBurst = *apiBurst
	cfg.APIMaxConcurrent = *apiMaxConc
	cfg.MaxSSEClients = *maxSSE
	cfg.RestartBudget = *restartBudget
	cfg.RestartWindow = *restartWindow
	if *replicateTo != "" {
		for _, addr := range strings.Split(*replicateTo, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				cfg.ReplicateTo = append(cfg.ReplicateTo, addr)
			}
		}
	}
	for _, part := range strings.Split(*readers, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rc := fleet.ReaderConfig{Addr: part}
		if name, addr, ok := strings.Cut(part, "="); ok {
			rc = fleet.ReaderConfig{Name: strings.TrimSpace(name), Addr: strings.TrimSpace(addr)}
		}
		cfg.Readers = append(cfg.Readers, rc)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *standby {
		return runStandby(ctx, cfg, *listenRepl, *httpAddr, *promoteSig, *quiet)
	}

	m := fleet.New(cfg)
	if !*quiet {
		logFleetEvents(m)
	}

	if err := m.Start(ctx); err != nil {
		log.Printf("start fleet: %v", err)
		return 1
	}

	lis, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		log.Printf("listen %s: %v", *httpAddr, err)
		if serr := m.Stop(); serr != nil {
			log.Printf("fleetd: final save failed: %v", serr)
		}
		return 1
	}
	fmt.Printf("fleetd: %d readers supervised, HTTP on %s\n", len(cfg.Readers), lis.Addr())

	if err := m.Serve(ctx, lis); err != nil && err != http.ErrServerClosed {
		log.Printf("http: %v", err)
	}

	return finishFleet(m)
}

// finishFleet stops a live Manager and turns a failed final save into
// exit code 3 — distinct from runtime failures (1) so operators (and
// init systems, and the gauntlet) can tell "never served" apart from
// "served fine but the durable directory is now behind the live state".
func finishFleet(m *fleet.Manager) int {
	exit := 0
	if err := m.Stop(); err != nil {
		log.Printf("fleetd: final save failed: %v (exiting unclean)", err)
		exit = 3
	}
	obs, handoffs := m.Registry().Stats()
	fmt.Printf("fleetd: %d tags, %d observations, %d handoffs\n", m.Registry().Len(), obs, handoffs)
	return exit
}

// logFleetEvents logs fleet events (state changes and handoffs; cycles
// are too chatty).
func logFleetEvents(m *fleet.Manager) {
	sub := m.Bus().Subscribe(256)
	go func() {
		for ev := range sub.C() {
			switch ev.Type {
			case fleet.EventReaderState:
				if ev.Error != "" {
					log.Printf("reader %s: %s (attempt %d): %s", ev.Reader, ev.State, ev.Attempt, ev.Error)
				} else {
					log.Printf("reader %s: %s (attempt %d)", ev.Reader, ev.State, ev.Attempt)
				}
			case fleet.EventHandoff:
				log.Printf("handoff %s: %s -> %s", ev.EPC, ev.From, ev.To)
			case fleet.EventStateStore:
				log.Printf("statestore %s failed: %s (registry now non-durable)", ev.State, ev.Error)
			case fleet.EventPanic:
				log.Printf("panic in %s: %s %s", ev.Reader, ev.State, ev.Error)
			}
		}
	}()
}

// runStandby runs the hot-standby role: accept the primary's replication
// stream into -state-dir and serve a minimal status surface. With
// promote enabled, SIGUSR1 turns the node into a live fleet over the
// replicated state — the HTTP address stays the same; the handler is
// swapped in place so watchers never have to re-resolve the node.
func runStandby(ctx context.Context, cfg fleet.Config, listenRepl, httpAddr string, promote, quiet bool) int {
	lisRepl, err := net.Listen("tcp", listenRepl)
	if err != nil {
		log.Printf("listen replication %s: %v", listenRepl, err)
		return 1
	}
	sb, err := fleet.NewStandby(cfg, lisRepl)
	if err != nil {
		lisRepl.Close()
		log.Printf("standby: %v", err)
		return 1
	}
	if err := sb.Start(ctx); err != nil {
		lisRepl.Close()
		log.Printf("standby: %v", err)
		return 1
	}

	lis, err := net.Listen("tcp", httpAddr)
	if err != nil {
		sb.Stop()
		log.Printf("listen %s: %v", httpAddr, err)
		return 1
	}

	// The served handler is swappable: standby status surface now, the
	// full fleet API after promotion, on the same listener. The box keeps
	// the stored concrete type constant — atomic.Value panics if the
	// standby and fleet handlers land as their own distinct types.
	type handlerBox struct{ h http.Handler }
	var handler atomic.Value
	handler.Store(handlerBox{sb.Handler()})
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- fleet.Serve(sctx, lis, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(handlerBox).h.ServeHTTP(w, r)
		}))
	}()
	// drain ends the HTTP loop and waits out its graceful drain, so no
	// request is still in flight when the standby or the promoted fleet
	// behind it stops.
	drain := func() {
		cancel()
		if err := <-served; err != nil && err != http.ErrServerClosed {
			log.Printf("http: %v", err)
		}
	}
	fmt.Printf("fleetd: standby, replication on %s, HTTP on %s\n", lisRepl.Addr(), lis.Addr())

	var promoteCh chan os.Signal
	if promote {
		promoteCh = make(chan os.Signal, 1)
		signal.Notify(promoteCh, syscall.SIGUSR1)
		defer signal.Stop(promoteCh)
	}

	select {
	case <-ctx.Done():
		drain()
		sb.Stop()
		return 0
	case err := <-served:
		log.Printf("http: %v", err)
		sb.Stop()
		return 1
	case <-promoteCh:
	}

	log.Print("fleetd: SIGUSR1 received, promoting standby to a live fleet")
	m, err := sb.Promote(ctx)
	if err != nil {
		log.Printf("promote: %v", err)
		drain()
		return 1
	}
	if !quiet {
		logFleetEvents(m)
	}
	handler.Store(handlerBox{m.Handler()})
	fmt.Printf("fleetd: promoted, %d readers supervised, HTTP on %s\n", len(cfg.Readers), lis.Addr())

	select {
	case <-ctx.Done():
		drain()
	case err := <-served:
		log.Printf("http: %v", err)
	}
	return finishFleet(m)
}
