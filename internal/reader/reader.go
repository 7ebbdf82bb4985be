// Package reader implements a COTS-style Gen2 reader engine (modelled on
// the ImpinJ Speedway R420 the paper uses) on top of the gen2 state
// machines and the rf channel: inventory rounds with Q-adaptive frame
// sizing, per-round start-up cost, Select-based selective reading,
// frequency hopping, and multi-antenna time multiplexing — all in virtual
// time, so hour-long traces simulate in milliseconds.
//
// The engine is the "device" the Tagwatch middleware drives. Everything
// the middleware can observe — EPC, timestamp, antenna, channel, RF phase,
// RSS — is surfaced through TagRead, exactly the tuple a real LLRP
// RO_ACCESS_REPORT carries.
//
// # Which tags each command visits
//
// A round measures every scene tag once to find the ones the antenna
// energises. Every energised tag then hears the round's Selects and its
// opening Query. Only the tags that join the Query, the contenders, hear
// the QueryReps and QueryAdjusts that follow, and a contender leaves the
// round once its singulation completes and it is back in Ready, where it
// would ignore both. The ACK goes to the slot's one replier. So a slot
// costs what the tags still in the round cost, not the whole field.
//
// The draws are bit-identical to a reader that sends every command to
// every energised tag, because a tag outside the round draws nothing:
// only contenders draw slot counters and RN16s, in scene order, and the
// channel draws its noise once per scene tag at round start, once per
// read and once per replier when capture weighs a collision. Each
// contender carries its scene tag, so a read is measured without a
// search, and tag memory decodes its EPC, PC word and CRC once per
// change, not per read. TestRoundGolden pins the draw order.
package reader

import (
	"fmt"
	"time"

	"tagwatch/internal/aloha"
	"tagwatch/internal/epc"
	"tagwatch/internal/gen2"
	"tagwatch/internal/scene"
)

// TagRead is one successful singulation: the reading the reader reports
// upstream.
type TagRead struct {
	EPC      epc.EPC
	Time     time.Duration // virtual time of the EPC backscatter
	Antenna  int           // 1-based antenna port
	Channel  int           // hop channel index
	PhaseRad float64
	RSSdBm   float64
}

// Stats aggregates link-layer counters across the reader's lifetime.
type Stats struct {
	Rounds     int
	Slots      int
	Empties    int
	Collisions int
	Singles    int
	Reads      int
}

// Config tunes the reader engine.
type Config struct {
	// Timing is the Gen2 link profile.
	Timing gen2.LinkTiming
	// Session is the inventory session used for all rounds.
	Session gen2.Session
	// StartupCost is τ₀: the fixed per-round overhead a COTS reader spends
	// on ROSpec processing, synchronisation and state clearing before the
	// first slot (§2.2). The paper measures 19 ms on the R420.
	StartupCost time.Duration
	// HopEvery is the frequency-hop dwell; the Chinese band plan the paper
	// operates under hops every 2 s. Zero disables hopping.
	HopEvery time.Duration
	// NewStrategy builds the frame-sizing strategy. Each reader owns one
	// strategy instance for its lifetime (Gen2 readers carry Q across
	// rounds only via the initial Q; our strategies reset in BeginRound).
	Strategy aloha.Strategy
	// MaxSlotsPerRound bounds runaway rounds (a safety net; optimal rounds
	// need ≈ n·e·ln n slots).
	MaxSlotsPerRound int
	// CaptureMarginDB enables the capture effect: when the strongest
	// replier in a collided slot exceeds every other replier by at least
	// this margin, the receiver decodes it anyway (near–far capture).
	// Zero disables capture (the default; the paper's model assumes
	// destructive collisions).
	CaptureMarginDB float64
	// MaxSelectFilters is how many Select commands one inventory round
	// carries at most: the filter limit the reader reports, which LLRP
	// calls MaxSelectFiltersPerQuery. Zero means 1.
	MaxSelectFilters int
}

// DefaultConfig returns a configuration matching the paper's testbed:
// autoset link profile, S1, τ₀ = 19 ms, 2 s hop dwell, Q-adaptive with
// initial Q = 4, and two Select filters per inventory, the two tag
// filters Impinj's Octane SDK offers (unverified against an R420's own
// LLRP capabilities).
func DefaultConfig() Config {
	return Config{
		Timing:           gen2.ImpinjAutosetProfile(),
		Session:          gen2.S1,
		StartupCost:      19 * time.Millisecond,
		HopEvery:         2 * time.Second,
		Strategy:         aloha.NewQAdaptive(4),
		MaxSlotsPerRound: 1 << 17,
		MaxSelectFilters: 2,
	}
}

// Reader simulates one multi-antenna Gen2 reader attached to a scene.
type Reader struct {
	cfg   Config
	scn   *scene.Scene
	tags  map[epc.EPC]*gen2.Tag // link-layer state per scene tag
	now   time.Duration
	chIdx int
	stats Stats
	// parts, contenders and repliers are the round's reusable buffers: the
	// energised tags, the ones still in the round, and the slot's
	// repliers. The inventory loop runs millions of slots per experiment
	// and must not allocate per slot.
	parts, contenders []participant
	repliers          []replier
}

// participant is an energised tag: its place in the scene and its
// link-layer state.
type participant struct {
	st *scene.Tag
	lt *gen2.Tag
}

// replier pairs a participant with its in-flight RN16 reply for one slot.
type replier struct {
	participant
	rep gen2.Reply
}

// New builds a reader over a scene. The scene must already contain its
// antennas; tags may be added to the scene later and are picked up
// automatically.
func New(cfg Config, scn *scene.Scene) *Reader {
	if cfg.Strategy == nil {
		cfg.Strategy = aloha.NewQAdaptive(4)
	}
	if cfg.MaxSlotsPerRound <= 0 {
		cfg.MaxSlotsPerRound = 1 << 17
	}
	if cfg.Timing.TariUS == 0 {
		cfg.Timing = gen2.ImpinjAutosetProfile()
	}
	if cfg.MaxSelectFilters <= 0 {
		cfg.MaxSelectFilters = 1
	}
	return &Reader{cfg: cfg, scn: scn, tags: make(map[epc.EPC]*gen2.Tag)}
}

// Now returns the reader's virtual clock.
func (r *Reader) Now() time.Duration { return r.now }

// Advance moves the virtual clock forward without reading — idle time
// between phases.
func (r *Reader) Advance(d time.Duration) {
	if d > 0 {
		r.now += d
	}
}

// Stats returns the accumulated link-layer counters.
func (r *Reader) Stats() Stats { return r.stats }

// Config returns the reader's configuration.
func (r *Reader) Config() Config { return r.cfg }

// Scene returns the scene the reader observes.
func (r *Reader) Scene() *scene.Scene { return r.scn }

// linkTag returns the gen2 state machine for a scene tag, creating it on
// first contact.
func (r *Reader) linkTag(st *scene.Tag) *gen2.Tag {
	t, ok := r.tags[st.EPC]
	if !ok {
		t = gen2.NewTag(st.Memory)
		r.tags[st.EPC] = t
	}
	return t
}

// hop advances the frequency-hop channel when the dwell expires.
func (r *Reader) hop() {
	if r.cfg.HopEvery <= 0 {
		r.chIdx = 0
		return
	}
	// Deterministic pseudo-random hop sequence: stride 7 is coprime with
	// the 16-channel plan, visiting every channel each super-period.
	slot := int(r.now / r.cfg.HopEvery)
	n := r.scn.Channel.Params().Plan.NumChan
	r.chIdx = (slot * 7) % n
}

// RoundOpts parameterises one inventory round.
type RoundOpts struct {
	// Antenna is the 1-based antenna port the round runs on.
	Antenna int
	// Filters, when non-empty, restricts the round to the tags whose SL
	// flag they leave asserted: the reader clears SL, applies each Select
	// in order with the action the caller states (the target is always
	// SL), and queries with Sel=SL. One filter reproduces one AISpec with
	// one C1G2Filter (§6). Actions [assert/-, -/deassert, …] intersect
	// the masks; [assert/-, assert/-, …] unite them.
	Filters []gen2.SelectCmd
	// Budget, when positive, aborts the round once the round has consumed
	// this much virtual time (the dwell boundary of a phase).
	Budget time.Duration
}

// RunRound executes one full inventory round and returns its total
// virtual duration. Each successful read is handed to emit (which may be
// nil) at its singulation, so the reader clock during the call is the
// read's Time; emit must not start another round on this reader. The
// round charges the start-up cost τ₀, the Select air time, every slot,
// and the tail of empty slots a real reader needs before it can conclude
// the population is exhausted. The package comment says which tags each
// command visits.
func (r *Reader) RunRound(opts RoundOpts, emit func(TagRead)) time.Duration {
	start := r.now
	lt := r.cfg.Timing
	rng := r.scn.RNG()
	r.stats.Rounds++
	r.hop()

	// τ₀: ROSpec processing, synchronisation, state clearing, reporting.
	r.now += r.cfg.StartupCost

	ant, ok := r.antenna(opts.Antenna)
	if !ok {
		return r.now - start
	}

	// Determine the tags the antenna can energise at round start.
	parts := r.parts[:0]
	for _, st := range r.scn.Tags {
		if r.scn.MeasureTag(st, ant, r.now, r.chIdx).Readable {
			parts = append(parts, participant{st: st, lt: r.linkTag(st)})
		}
	}
	r.parts = parts

	// Select sequence. Every round begins by resetting the session flag of
	// all tags in the field to A (part of the "clearing history states"
	// the paper folds into τ₀ — but the air time is charged explicitly).
	resetSel := gen2.SelectCmd{
		Target:  gen2.Target(r.cfg.Session),
		Action:  gen2.ActionAssertNothing, // zero-length mask matches all
		MemBank: epc.BankEPC,
		Pointer: 0,
	}
	r.applySelect(parts, resetSel)

	sel := gen2.SelAll
	if len(opts.Filters) > 0 {
		sel = gen2.SelSL
		// Deassert SL everywhere, then let each Select steer it by its own
		// action.
		clearSL := gen2.SelectCmd{Target: gen2.TargetSL, Action: gen2.ActionDeassertNothing, MemBank: epc.BankEPC, Pointer: 0}
		r.applySelect(parts, clearSL)
		for _, f := range opts.Filters {
			f.Target = gen2.TargetSL
			r.applySelect(parts, f)
		}
	}

	// Opening Query, sized for the tags that will join it. Every energised
	// tag hears it; the ones that join are the round's contenders.
	query := gen2.Query{Sel: sel, Session: r.cfg.Session, Target: gen2.FlagA}
	joining := 0
	for _, p := range parts {
		if p.lt.Joins(query) {
			joining++
		}
	}
	query.Q = r.cfg.Strategy.BeginRound(joining)
	r.now += lt.QueryDuration()
	replies := r.repliers[:0]
	cont := r.contenders[:0]
	for _, p := range parts {
		if rep, ok := p.lt.HandleQuery(query, rng); ok {
			replies = append(replies, replier{p, rep})
		}
		if p.lt.State() != gen2.StateReady {
			cont = append(cont, p)
		}
	}
	pending := len(cont) // contenders not yet singulated

	slotCmd := lt.QueryRepDuration()
	qa := gen2.QueryAdjust{Session: r.cfg.Session}
	qr := gen2.QueryRep{Session: r.cfg.Session}
	overBudget := func() bool {
		return opts.Budget > 0 && r.now-start >= opts.Budget
	}

	emptyStreak := 0
	for slots := 0; slots < r.cfg.MaxSlotsPerRound; slots++ {
		if overBudget() {
			break
		}
		r.stats.Slots++
		// Capture effect: a dominant replier survives the collision.
		if len(replies) > 1 && r.cfg.CaptureMarginDB > 0 {
			// The drowned tags need no special handling: like any collided
			// tag, their next QueryRep wraps them back to Arbitrate.
			if w := r.captureWinner(replies, ant); w >= 0 {
				replies[0] = replies[w]
				replies = replies[:1]
			}
		}
		var outcome aloha.Outcome
		switch len(replies) {
		case 0:
			outcome = aloha.Empty
			r.stats.Empties++
			r.now += lt.EmptySlotDuration(slotCmd)
			emptyStreak++
		case 1:
			outcome = aloha.Singleton
			r.stats.Singles++
			emptyStreak = 0
			w := replies[0]
			r.now += slotCmd + lt.T1() + lt.RN16Duration() + lt.T2() + lt.ACKDuration() + lt.T1()
			if er, ok := w.lt.HandleACK(gen2.ACK{RN16: w.rep.RN16}); ok {
				r.now += lt.EPCReplyDuration(er.EPC.Bits()) + lt.T2()
				m := r.scn.MeasureTag(w.st, ant, r.now, r.chIdx)
				r.stats.Reads++
				pending--
				if emit != nil {
					emit(TagRead{
						EPC: er.EPC, Time: r.now, Antenna: ant.ID,
						Channel: r.chIdx, PhaseRad: m.PhaseRad, RSSdBm: m.RSSdBm,
					})
				}
			}
		default:
			outcome = aloha.Collision
			r.stats.Collisions++
			emptyStreak = 0
			r.now += lt.CollisionSlotDuration(slotCmd)
		}

		newQ, changed := r.cfg.Strategy.OnSlot(outcome, pending)

		// Round termination: population exhausted and the reader has seen
		// enough empties to conclude so (Q decayed to zero plus one final
		// empty slot at Q=0).
		if pending <= 0 && outcome == aloha.Empty && newQ == 0 && emptyStreak > 1 {
			break
		}

		// QueryAdjust re-draws all arbitrating tags. After a collision the
		// reader must adjust even when the rounded Q is unchanged: collided
		// tags have wrapped their slot counters to 0x7FFF and only a redraw
		// brings them back into the frame (otherwise an initial Q of 0
		// deadlocks, alternating collision and empty). Otherwise the next
		// slot opens with a QueryRep. Either goes to the contenders only; a
		// contender back in Ready has completed its singulation, ignores
		// both, and leaves the round.
		adjust := changed || outcome == aloha.Collision
		if adjust {
			r.now += lt.QueryAdjustDuration()
		}
		replies = replies[:0]
		n := 0
		for _, p := range cont {
			var (
				rep gen2.Reply
				ok  bool
			)
			if adjust {
				rep, ok = p.lt.HandleQueryAdjust(qa, newQ, rng)
			} else {
				rep, ok = p.lt.HandleQueryRep(qr, rng)
			}
			if ok {
				replies = append(replies, replier{p, rep})
			}
			if p.lt.State() != gen2.StateReady {
				cont[n] = p
				n++
			}
		}
		cont = cont[:n]
	}
	r.contenders = cont[:0]
	r.repliers = replies[:0]
	return r.now - start
}

// captureWinner returns the index of the strongest replier when it clears
// every other replier by the configured margin, -1 otherwise.
func (r *Reader) captureWinner(replies []replier, ant scene.Antenna) int {
	var best, second float64 = -1e9, -1e9
	winner := -1
	for i, rep := range replies {
		m := r.scn.MeasureTag(rep.st, ant, r.now, r.chIdx)
		if m.RSSdBm > best {
			second = best
			best = m.RSSdBm
			winner = i
		} else if m.RSSdBm > second {
			second = m.RSSdBm
		}
	}
	if best-second >= r.cfg.CaptureMarginDB {
		return winner
	}
	return -1
}

// applySelect charges the Select air time and applies the command to all
// energised tags.
func (r *Reader) applySelect(parts []participant, cmd gen2.SelectCmd) {
	r.now += r.cfg.Timing.SelectDuration(cmd)
	for _, p := range parts {
		p.lt.ApplySelect(cmd)
	}
}

// antenna resolves a 1-based antenna port.
func (r *Reader) antenna(id int) (scene.Antenna, bool) {
	for _, a := range r.scn.Antennas {
		if a.ID == id {
			return a, true
		}
	}
	return scene.Antenna{}, false
}

// InventoryAll runs one round on every antenna in port order — the
// "reading all" baseline.
func (r *Reader) InventoryAll() []TagRead {
	var out []TagRead
	for _, a := range r.scn.Antennas {
		r.RunRound(RoundOpts{Antenna: a.ID}, func(tr TagRead) { out = append(out, tr) })
	}
	return out
}

// String renders the reader state for logs.
func (r *Reader) String() string {
	return fmt.Sprintf("reader.Reader{t=%v ch=%d rounds=%d reads=%d}", r.now, r.chIdx, r.stats.Rounds, r.stats.Reads)
}
