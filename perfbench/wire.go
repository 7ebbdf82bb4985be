package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"tagwatch/internal/edge"
	"tagwatch/internal/fleet"
	"tagwatch/internal/llrp"
	"tagwatch/internal/reader"
	"tagwatch/internal/replay"
	"tagwatch/internal/scene"
)

// fleetWireScale: 100 tags with 30 % on the turntable, so every cycle
// falls back to read-all. Cool-down cycles follow the measured ones so
// that a dropped tail of the last measured burst is flushed by the next
// publish rather than by the 15 s SSE heartbeat.
func fleetWireScale(small bool) scale {
	if small {
		return scale{tags: 20, movers: 6, warmup: 2, cycles: 110, cool: 2, dwell: 300 * time.Millisecond, repeats: 2}
	}
	return scale{tags: 100, movers: 30, warmup: 4, cycles: 100, cool: 2, dwell: 5 * time.Second, repeats: 3}
}

// waitFor bounds every wait on the fleet, so a wedged run fails instead
// of hanging past the benchmark's time limit.
const waitFor = 60 * time.Second

// subBuffer sizes the rig's subscription to the edge's downstream bus.
// A read-all cycle publishes about 1.6k events in a burst; 8192 holds
// several bursts, so the rig (whose own loss would be a rig failure)
// never sheds.
const subBuffer = 8192

// countingListener counts the bytes of every connection it accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

// countingConn adds the bytes it reads and writes to n.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// wireRig is one reader emulator, fleet, HTTP API and edge mirror, plus
// the rig's consumer of the edge's downstream bus.
type wireRig struct {
	srv       *llrp.Server
	mgr       *fleet.Manager
	fs        *memFS
	client    *edge.Client
	sub       *fleet.Subscriber
	cons      *consumer
	llrpBytes atomic.Int64
	edgeBytes atomic.Int64

	serveCancel  context.CancelFunc
	serveDone    chan error
	clientCancel context.CancelFunc
	clientDone   chan struct{}
	consDone     chan struct{}
}

// wireMark extends a mark with the fleet's and edge's public counters.
type wireMark struct {
	mark
	edge       edge.ClientStatus
	published  uint64
	dropped    uint64
	llrpBytes  int64
	edgeBytes  int64
	stateBytes int64
}

func (w *wireRig) takeMark() wireMark {
	published, dropped, _ := w.mgr.Bus().Stats()
	return wireMark{
		mark:       takeMark(),
		edge:       w.client.Status(),
		published:  published,
		dropped:    dropped,
		llrpBytes:  w.llrpBytes.Load(),
		edgeBytes:  w.edgeBytes.Load(),
		stateBytes: w.fs.written.Load(),
	}
}

// consumer follows the edge's downstream bus: it delimits cycles by
// their cycle events, separates each tag image into an observation (its
// read count grew) or a cycle-end assessment, and tallies. It owns all
// its fields until done is closed.
type consumer struct {
	r       *run
	rig     *wireRig
	truth   map[string]*scene.Tag
	measure bool // this rig is the measured one
	warm    int  // cycle events before the measured phase
	last    int  // cycle event that ends the measured phase
	cool    int  // cycle event that ends the cool-down

	warmed, measured, cooled chan struct{}

	reads      map[string]uint64
	cycles     int
	measuring  bool
	from, to   wireMark
	heapMB     float64
	profileErr error
	clock      time.Duration // newest device time seen
	clockStart time.Duration
	clockEnd   time.Duration

	readings, moverReads int
	mustMirror           int
	lag, age             hist
	batch                []time.Duration // this cycle's observation device times
	costs, cycleMS       []float64
	tally                verdicts
	present, mobile      int
	targets, fallbacks   int
	masks                int
	lastCycle, firstEv   time.Time
	lost                 int // gap events on the rig's own subscription
	// spans are the consumer's own, merged into the run's once it is
	// done, so the two goroutines never share a log.
	spans     *spanLog
	cycleSpan int
}

func (c *consumer) loop(done chan struct{}) {
	defer close(done)
	for ev := range c.rig.sub.C() {
		now := time.Now()
		if c.firstEv.IsZero() {
			c.firstEv = now
		}
		switch ev.Type {
		case fleet.EventTag:
			c.tag(ev.Tag, now)
		case fleet.EventCycle:
			c.cycle(ev.Cycle, now)
		case fleet.EventGap:
			c.lost++
		}
	}
}

func (c *consumer) tag(st *fleet.TagState, now time.Time) {
	if st == nil {
		return
	}
	prev := c.reads[st.EPC]
	if st.Reads == prev {
		// An assessment image: the cycle's verdict for a present tag.
		if c.measuring {
			t := c.truth[st.EPC]
			c.tally.add(st.Mobile, t != nil && t.Traj.Moving(st.DeviceTime))
		}
		return
	}
	c.reads[st.EPC] = st.Reads
	if st.DeviceTime > c.clock {
		c.clock = st.DeviceTime
	}
	if !c.measuring {
		return
	}
	n := int(st.Reads - prev)
	c.readings += n
	if t := c.truth[st.EPC]; t != nil && t.Traj.Moving(st.DeviceTime) {
		c.moverReads += n
	}
	c.lag.add(now.Sub(st.LastSeen))
	c.batch = append(c.batch, st.DeviceTime)
}

func (c *consumer) cycle(sum *fleet.CycleSummary, now time.Time) {
	c.cycles++
	i := c.cycles - c.warm - 1 // measured cycles are 0..last-warm-1
	if c.measuring && sum != nil {
		c.r.attempts++
		if sum.Err != "" {
			c.r.fail("cycle %d: %s", i, sum.Err)
		}
		want := sum.PhaseIReads + sum.PhaseIIReads
		c.mustMirror += want
		if len(c.batch) != want {
			c.r.fail("cycle %d: the edge mirrored %d readings, the cycle delivered %d", i, len(c.batch), want)
		} else {
			// Core delivers each phase's readings as one batch; the device
			// clock at delivery is the batch's newest air time.
			ageBatch(&c.age, c.batch[:sum.PhaseIReads])
			ageBatch(&c.age, c.batch[sum.PhaseIReads:])
		}
		c.costs = append(c.costs, float64(time.Duration(sum.ScheduleCostU)*time.Microsecond))
		c.cycleMS = append(c.cycleMS, float64(now.Sub(c.lastCycle)))
		c.present += sum.Present
		c.mobile += sum.Mobile
		c.targets += sum.Targets
		c.masks += sum.Masks
		if sum.FellBack {
			c.fallbacks++
		}
		c.r.digestf("%d/%d/%d:", sum.PhaseIReads, sum.PhaseIIReads, sum.Masks)
		cyc := c.spans.add("cycle", c.cycleSpan, i, c.lastCycle, now)
		c.spans.add("subscriber", cyc, i, c.firstEv, now)
	}
	c.batch = c.batch[:0]
	c.firstEv = time.Time{}
	c.lastCycle = now
	switch c.cycles {
	case c.warm:
		if c.measure {
			c.profileErr = c.r.startProfile()
			c.from = c.rig.takeMark()
			c.clockStart = c.clock
			c.measuring = true
			c.cycleSpan = c.spans.reserve("measure", 0, -1, c.from.wall)
		}
		close(c.warmed)
	case c.last:
		if c.measuring {
			c.to = c.rig.takeMark()
			c.spans.close(c.cycleSpan, c.to.wall)
			c.profileErr = errors.Join(c.profileErr, c.r.stopProfile())
			c.heapMB = liveHeapMB()
			c.clockEnd = c.clock
			c.measuring = false
		}
		close(c.measured)
	case c.cool:
		close(c.cooled)
	}
}

// ageBatch records each reading's age at its batch's delivery.
func ageBatch(h *hist, batch []time.Duration) {
	var newest time.Duration
	for _, t := range batch {
		if t > newest {
			newest = t
		}
	}
	for _, t := range batch {
		h.add(newest - t)
	}
}

// wait blocks until ch closes or the wait bound passes.
func wait(ch <-chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-time.After(waitFor):
		return fmt.Errorf("timed out waiting for %s", what)
	}
}

// buildWire constructs the reader emulator, the durable fleet, its HTTP
// API and the edge mirror, anchors the edge, starts the fleet and waits
// out the warm-up cycles: everything setup_s covers on fleet-wire.
func buildWire(r *run, sc scale, keep bool) (*wireRig, error) {
	t0 := time.Now()
	scn, err := turntableScene(r.opts.seed, sc.tags, sc.movers)
	if err != nil {
		return nil, err
	}
	w := &wireRig{fs: newMemFS()}
	w.srv = llrp.NewServer(reader.New(reader.DefaultConfig(), scn), llrp.ServerConfig{})
	llrpLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := w.srv.Serve(countingListener{Listener: llrpLis, n: &w.llrpBytes})
	t1 := time.Now()

	cfg := fleet.DefaultConfig()
	cfg.Readers = []fleet.ReaderConfig{{Name: "reader-1", Addr: addr.String()}}
	cfg.Tagwatch.PhaseIIDwell = sc.dwell
	cfg.StateDir = "state"
	cfg.StateFS = w.fs
	w.mgr = fleet.New(cfg)
	httpLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		return nil, err
	}
	var sctx context.Context
	sctx, w.serveCancel = context.WithCancel(context.Background())
	w.serveDone = make(chan error, 1)
	go func() { w.serveDone <- w.mgr.Serve(sctx, httpLis) }()
	t2 := time.Now()

	w.client = edge.NewClient(edge.Config{
		Upstream: httpLis.Addr().String(),
		Seed:     r.opts.seed,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, n: &w.edgeBytes}, nil
		},
	})
	w.sub = w.client.Bus().Subscribe(subBuffer)
	w.cons = &consumer{
		r: r, rig: w, measure: keep, truth: map[string]*scene.Tag{}, reads: map[string]uint64{},
		warm: sc.warmup, last: sc.warmup + sc.cycles, cool: sc.warmup + sc.cycles + sc.cool,
		warmed: make(chan struct{}), measured: make(chan struct{}), cooled: make(chan struct{}),
	}
	if r.spans != nil && keep {
		w.cons.spans = &spanLog{t0: r.spans.t0}
	}
	for _, t := range scn.Tags {
		w.cons.truth[t.EPC.String()] = t
	}
	w.consDone = make(chan struct{})
	go w.cons.loop(w.consDone)
	var cctx context.Context
	cctx, w.clientCancel = context.WithCancel(context.Background())
	w.clientDone = make(chan struct{})
	go func() {
		defer close(w.clientDone)
		// Run returns only the cancellation that ends it.
		_ = w.client.Run(cctx)
	}()
	// Anchor the edge on the still-empty registry, so every reading
	// reaches it as an event rather than inside a snapshot.
	anchorBy := time.Now().Add(waitFor)
	for w.client.Status().Resets == 0 {
		if time.Now().After(anchorBy) {
			w.close()
			return nil, errors.New("edge never anchored")
		}
		time.Sleep(time.Millisecond)
	}
	t3 := time.Now()
	if err := w.mgr.Start(context.Background()); err != nil {
		w.close()
		return nil, err
	}
	if err := wait(w.cons.warmed, "the warm-up cycles"); err != nil {
		w.close()
		return nil, err
	}
	t4 := time.Now()
	parent := r.spans.add("setup", 0, -1, t0, t4)
	r.spans.add("setup.server", parent, -1, t0, t1)
	r.spans.add("setup.fleet", parent, -1, t1, t2)
	r.spans.add("setup.edge_anchor", parent, -1, t2, t3)
	r.spans.add("setup.warmup", parent, -1, t3, t4)
	return w, nil
}

// close tears the rig down: fleet, HTTP API, edge, the rig's
// subscription and reader emulator, waiting for each.
//
// The HTTP API goes before the edge client: edge.Client re-arms its
// read deadline after every frame, so a cancellation that lands while
// it handles a frame is lost for as long as upstream keeps sending
// (the 15 s heartbeat does). Closing upstream first ends the stream.
func (w *wireRig) close() {
	// A failed final snapshot would surface here; the in-memory store
	// cannot fail it, and a discarded set-up has nothing to report.
	_ = w.mgr.Stop()
	w.serveCancel()
	<-w.serveDone
	w.clientCancel()
	<-w.clientDone
	w.sub.Close()
	<-w.consDone
	w.srv.Close()
}

// runWire runs fleet-wire: set-up, measured and cool-down cycles through
// LLRP, the fleet, SSE and the edge; then the edge's catch-up, the
// mirror check and (untimed) the read-all reference.
func runWire(r *run, sc scale) error {
	w, err := setup(r, sc.repeats, func(keep bool) (*wireRig, error) { return buildWire(r, sc, keep) }, (*wireRig).close)
	if err != nil {
		return err
	}
	c := w.cons
	if err := wait(c.measured, "the measured cycles"); err != nil {
		w.close()
		return err
	}
	if err := wait(c.cooled, "the cool-down cycles"); err != nil {
		w.close()
		return err
	}
	// Stop the fleet so the registry is final, then let the edge catch
	// up to the bus head and compare the mirror with the registry.
	stopErr := w.mgr.Stop()
	t0 := time.Now()
	caught := false
	for time.Since(t0) < waitFor {
		ident, cur := w.client.Cursor()
		if ident == w.mgr.Bus().Identity() && cur >= w.mgr.Bus().LastSeq() {
			caught = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	t1 := time.Now()
	regFP, err1 := replay.RegistryFingerprint(w.mgr.Registry())
	mirrorFP, err2 := replay.SnapshotFingerprint(w.client.Snapshot())
	final := w.client.Status()
	dropped := w.sub.Dropped()
	w.close()
	t2 := time.Now()
	if err := errors.Join(stopErr, err1, err2, c.profileErr); err != nil {
		return err
	}
	r.spans.merge(c.spans)
	r.spans.add("edge.catchup", 0, -1, t0, t1)
	r.spans.add("teardown", 0, -1, t1, t2)
	fmt.Fprintf(os.Stderr, "perfbench: edge caught up %v after the fleet stopped\n", t1.Sub(t0).Round(time.Millisecond))

	r.attempts += c.mustMirror
	switch {
	case !caught:
		r.fail("the edge never caught up with the bus head")
	case regFP != mirrorFP:
		r.fail("edge mirror %s differs from registry %s", mirrorFP[:12], regFP[:12])
	}
	if final.GapsReset > 0 {
		r.fail("%d gaps healed only by a reset", final.GapsReset)
	}
	if final.ContiguityViolations > 0 {
		r.fail("%d contiguity violations", final.ContiguityViolations)
	}
	if final.Resets > 1 {
		r.fail("%d resets beyond the initial anchor", final.Resets-1)
	}
	if dropped > 0 || c.lost > 0 {
		r.fail("the rig's own subscription lost %d events in %d gaps", dropped, c.lost)
	}

	readings := c.readings
	r.measured(c.from.mark, c.to.mark, readings)
	r.setE2E("live_heap_mb", c.heapMB)
	p50, e50 := percentile(c.costs, 0.5)
	r.setPercentile(r.setLayer, "schedule_cost_p50_ms", p50, e50)
	p90, e90 := percentile(c.costs, 0.9)
	r.setPercentile(r.setLayer, "schedule_cost_p90_ms", p90, e90)
	age, eAge := c.age.quantile(0.5)
	r.setPercentile(r.setE2E, "reading_age_p50_ms", age, eAge)
	lag50, eLag50 := c.lag.quantile(0.5)
	r.setPercentile(r.setLayer, "edge_lag_p50_ms", lag50, eLag50)
	lag90, eLag90 := c.lag.quantile(0.9)
	r.setPercentile(r.setLayer, "edge_lag_p90_ms", lag90, eLag90)
	c.tally.report(r)

	window := c.clockEnd - c.clockStart
	refRate, err := readAllReference(func(seed int64) (*scene.Scene, error) {
		return turntableScene(seed, sc.tags, sc.movers)
	}, r.opts.seed, c.clockStart, window)
	if err != nil {
		return err
	}
	if refRate == 0 || window <= 0 {
		r.fail("read-all reference read no movers")
	} else {
		r.setE2E("irr_gain", ratio(float64(c.moverReads)/window.Seconds(), refRate))
	}

	n := float64(sc.cycles)
	from, to := c.from, c.to
	st := w.srv.Engine().Stats() // lifetime: the engine is idle only once closed
	r.setLayer("core.cycle_ms_p50", median(c.cycleMS)/float64(time.Millisecond))
	r.setLayer("core.fallback_share", float64(c.fallbacks)/n)
	r.setLayer("core.targets_per_cycle", float64(c.targets)/n)
	r.setLayer("schedule.select_ms_p50", 0)
	r.setLayer("schedule.table_ms_p50", 0)
	r.setLayer("schedule.table_builds", 0)
	r.setLayer("schedule.masks_per_cycle", float64(c.masks)/n)
	r.setLayer("schedule.collateral_per_cycle", 0)
	r.setLayer("schedule.target_read_share", 0)
	r.setLayer("motion.tracked_tags", 0) // the detector is private to the supervisor
	r.setLayer("motion.restless_share", ratio(float64(c.mobile), float64(c.present)))
	r.setLayer("reader.slots_per_read", ratio(float64(st.Slots), float64(st.Reads)))
	r.setLayer("reader.collision_share", ratio(float64(st.Collisions), float64(st.Slots)))
	r.setLayer("reader.rounds_per_cycle", ratio(float64(st.Rounds), float64(c.cycles)))
	r.setLayer("llrp.bytes_per_reading", ratio(float64(to.llrpBytes-from.llrpBytes), float64(readings)))
	r.setLayer("fleet.events_per_reading", ratio(float64(to.published-from.published), float64(readings)))
	r.setLayer("fleet.bus_dropped_per_cycle", float64(to.dropped-from.dropped)/n)
	r.setLayer("edge.sse_bytes_per_event", ratio(float64(to.edgeBytes-from.edgeBytes), float64(to.edge.Frames-from.edge.Frames)))
	r.setLayer("edge.resyncs_per_cycle", float64(to.edge.GapsHealed-from.edge.GapsHealed)/n)
	r.setLayer("edge.gaps_reset", float64(final.GapsReset))
	r.setLayer("edge.contiguity_violations", float64(final.ContiguityViolations))
	r.setLayer("statestore.bytes_written", float64(to.stateBytes-from.stateBytes))
	return nil
}
