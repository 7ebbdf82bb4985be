package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"time"

	"tagwatch/internal/epc"
)

// Reading is one compiled tag observation: what one gate's reader would
// deliver upstream. Tag indexes into Compiled.Tags; phase/RSS are
// synthetic draws (the replay path exercises the fleet pipeline, not the
// RF channel — use BuildScene for physical-layer fidelity).
type Reading struct {
	Tag      int32
	At       time.Duration // virtual timestamp
	Antenna  uint8         // 1-based port on the event's gate
	Channel  uint8         // hop channel index
	PhaseRad float32
	RSSdBm   float32
}

// CycleEvent is one gate's assessment cycle: every reading delivered in
// the window, the distinct-present count, and the tags whose motion the
// cycle would assess as mobile. The replay daemon turns each event into a
// registry merge + assessment refresh + bus cycle summary.
type CycleEvent struct {
	At       time.Duration // window end (virtual)
	Gate     int           // index into Spec.Gates
	Present  int           // distinct tags read in the window
	Readings []Reading     // ordered by (At, Tag, Antenna)
	Mobile   []int32       // sorted tag indexes read while crossing
}

// TagInfo summarises one compiled tag's life.
type TagInfo struct {
	EPC      epc.EPC
	Category int
	Resident bool
	Arrive   time.Duration
	Depart   time.Duration
	Parked   bool // ended the trace (or its dwell) parked
	Reads    int
	// CrossingReads counts the reads taken while the tag crossed a gate's
	// field; the rest of Reads were taken while it was parked.
	CrossingReads int
	// GateVisits counts distinct gate stays; a tag read at k > 1 gates
	// produces k-1 registry handoffs on replay.
	GateVisits int
}

// CategoryStats aggregates one category — the query unit of
// category-level applications.
type CategoryStats struct {
	Name     string
	Tags     int
	Readings int
}

// Stats summarises a compiled timeline.
type Stats struct {
	Tags           int
	Readings       int
	Events         int
	PeakConcurrent int // max tags simultaneously in any gate's field
	// GateChanges is the number of tag relocations between gates with
	// reads on both sides — the lower bound on replay handoffs.
	GateChanges int
	PerCategory []CategoryStats
}

// Compiled is a scenario timeline: deterministic for a (Spec, seed) pair,
// ordered by (At, Gate), ready to stream through the fleet.
type Compiled struct {
	Spec   Spec
	Seed   int64
	Tags   []TagInfo
	Events []CycleEvent
	Stats  Stats
}

// visit is one contiguous stay of a tag in one gate's field.
type visit struct {
	tag      int32
	gate     int
	from, to time.Duration
	moving   bool
	gamma    float64 // parked coupling; 1 while moving
}

// Compile turns a spec into a timeline. The same (spec, seed) pair always
// yields a byte-identical result (see Digest); every stochastic draw flows
// from the one seeded stream.
func Compile(spec Spec, seed int64) (*Compiled, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(seed))

	c := &Compiled{Spec: spec, Seed: seed}
	var visits []visit

	// ---- Residents: parked from t=0, relocating per MoverFraction. ----
	// Target: MoverFraction of residents in motion at any instant, so each
	// resident makes about MoverFraction·Duration/CrossTime moves.
	movesPerResident := 0.0
	if spec.MoverFraction > 0 {
		movesPerResident = spec.MoverFraction * float64(spec.Duration) / float64(spec.CrossTime)
	}
	for i := 0; i < spec.Residents; i++ {
		cat := pickCategory(rng, spec.Categories)
		idx := int32(len(c.Tags))
		c.Tags = append(c.Tags, TagInfo{Category: cat, Resident: true, Depart: spec.Duration, Parked: true})
		gate := rng.Intn(len(spec.Gates))
		moveTimes := drawTimes(rng, poisson(rng, movesPerResident), spec.Duration)
		at := time.Duration(0)
		for _, m := range moveTimes {
			if m <= at {
				continue
			}
			visits = append(visits, visit{tag: idx, gate: gate, from: at, to: m,
				gamma: drawGamma(rng, spec.Categories[cat])})
			next := otherGate(rng, len(spec.Gates), gate)
			cross := jitter(rng, spec.CrossTime)
			visits = append(visits, visit{tag: idx, gate: next, from: m, to: m + cross, moving: true, gamma: 1})
			gate, at = next, m+cross
		}
		if at < spec.Duration {
			visits = append(visits, visit{tag: idx, gate: gate, from: at, to: spec.Duration,
				gamma: drawGamma(rng, spec.Categories[cat])})
		}
	}

	// ---- Flowing population: batched arrivals crossing the route. ----
	remaining := spec.Population
	for remaining > 0 {
		k := 1 + poisson(rng, spec.Arrival.BatchMean-1)
		if k > remaining {
			k = remaining
		}
		remaining -= k
		t0 := arrivalTime(rng, spec)
		for j := 0; j < k; j++ {
			cat := pickCategory(rng, spec.Categories)
			idx := int32(len(c.Tags))
			info := TagInfo{Category: cat, Arrive: t0}
			at := t0
			for _, gi := range spec.Route {
				cross := jitter(rng, spec.CrossTime)
				visits = append(visits, visit{tag: idx, gate: gi, from: at, to: at + cross, moving: true, gamma: 1})
				at += cross
				if spec.TransitTime > 0 {
					at += jitter(rng, spec.TransitTime)
				}
			}
			catSpec := spec.Categories[cat]
			if catSpec.ParkProb > 0 && rng.Float64() < catSpec.ParkProb {
				dwell := time.Duration(rng.ExpFloat64() * float64(catSpec.MeanDwell))
				last := spec.Route[len(spec.Route)-1]
				visits = append(visits, visit{tag: idx, gate: last, from: at, to: at + dwell,
					gamma: drawGamma(rng, catSpec)})
				info.Parked = true
				at += dwell
			}
			info.Depart = at
			if info.Depart > spec.Duration {
				info.Depart = spec.Duration
			}
			c.Tags = append(c.Tags, info)
		}
	}

	// ---- Identity: category-prefixed sequential EPCs. ----
	// Each category owns a header byte, so category membership is
	// recoverable from the EPC prefix alone (the arXiv:2406.10347 query
	// model: count categories without enumerating codes).
	for i := range c.Tags {
		code, err := epc.SequentialPopulation(
			[]byte{0x30, 0x1C, 0xA0 | byte(c.Tags[i].Category)}, uint32(i), 1, epc.StandardBits)
		if err != nil {
			return nil, err
		}
		c.Tags[i].EPC = code[0]
	}

	c.simulate(rng, visits)
	c.finishStats()
	return c, nil
}

// The rate-adaptive policy (Spec.RateAdaptive), in the terms of the
// paper's §2.4 counterfactual.
const (
	// phaseIShare is the fraction of the channel Phase I takes to assess
	// the whole population; crossing tags share the rest, Λ(movers).
	phaseIShare = 0.1
	// parkedReadRate is a fully-coupled parked tag's Phase I reading rate
	// (s⁻¹): about one read per 5 s, scaled by its coupling γ.
	parkedReadRate = 1.0 / 5
)

// gateState tracks one gate's live visits and the current cycle bucket.
type gateState struct {
	live []visit
	next int // index of the first unconsumed visit in the gate's queue
	// queue holds the gate's visits sorted by from.
	queue []visit
	// bucket accumulates the current cycle window.
	readings []Reading
	touched  map[int32]bool // read this window
	mobile   map[int32]bool // read while moving this window
}

// simulate walks the step grid, drawing per-step Poisson readings for
// every live visit under the shared-channel cost model, and flushes one
// CycleEvent per gate per cycle window.
func (c *Compiled) simulate(rng *rand.Rand, visits []visit) {
	spec := c.Spec
	gates := make([]*gateState, len(spec.Gates))
	for i := range gates {
		gates[i] = &gateState{touched: make(map[int32]bool), mobile: make(map[int32]bool)}
	}
	for _, v := range visits {
		if v.to <= v.from || v.from >= spec.Duration {
			continue
		}
		gates[v.gate].queue = append(gates[v.gate].queue, v)
	}
	for _, g := range gates {
		sort.SliceStable(g.queue, func(i, j int) bool {
			a, b := g.queue[i], g.queue[j]
			if a.from != b.from {
				return a.from < b.from
			}
			return a.tag < b.tag
		})
	}

	steps := int(spec.Duration / spec.Step)
	if steps == 0 {
		steps = 1
	}
	stepSec := spec.Step.Seconds()
	cycleEnd := spec.Cycle
	for s := 0; s < steps; s++ {
		now := time.Duration(s) * spec.Step
		for gi, g := range gates {
			// Admit visits that have started; retire ones that ended.
			for g.next < len(g.queue) && g.queue[g.next].from <= now {
				g.live = append(g.live, g.queue[g.next])
				g.next++
			}
			keep := g.live[:0]
			for _, v := range g.live {
				if v.to > now {
					keep = append(keep, v)
				}
			}
			g.live = keep
			n := len(g.live)
			if n == 0 {
				continue
			}
			if n > c.Stats.PeakConcurrent {
				c.Stats.PeakConcurrent = n
			}
			// Everyone in range shares the channel: Λ(n) per tag, damped by
			// the parked coupling γ for stationary tags at range margin.
			// Rate-adaptive, the crossing tags share what Phase I leaves
			// and parked tags get their Phase I reads only.
			irr := spec.Cost.IRR(n)
			moverIRR, parkedIRR := irr, irr
			if spec.RateAdaptive {
				movers := 0
				for _, v := range g.live {
					if v.moving {
						movers++
					}
				}
				moverIRR = (1 - phaseIShare) * spec.Cost.IRR(movers)
				parkedIRR = parkedReadRate
			}
			ants := spec.Gates[gi].Antennas
			for _, v := range g.live {
				rate := moverIRR
				if !v.moving {
					rate = parkedIRR * v.gamma
				}
				k := poisson(rng, rate*stepSec)
				if v.moving {
					c.Tags[v.tag].CrossingReads += k
				}
				for r := 0; r < k; r++ {
					g.readings = append(g.readings, Reading{
						Tag:      v.tag,
						At:       now + time.Duration(rng.Float64()*float64(spec.Step)),
						Antenna:  uint8(1 + rng.Intn(ants)),
						Channel:  uint8(rng.Intn(50)),
						PhaseRad: float32(rng.Float64() * 2 * math.Pi),
						RSSdBm:   float32(-50 - 25*rng.Float64()),
					})
					g.touched[v.tag] = true
					if v.moving {
						g.mobile[v.tag] = true
					}
				}
			}
		}
		stepEnd := now + spec.Step
		if stepEnd >= cycleEnd || s == steps-1 {
			// Flush at the step boundary (not the nominal cycle boundary) so
			// every reading in the window precedes its event's timestamp even
			// when Step does not divide Cycle.
			c.flush(gates, stepEnd)
			for cycleEnd <= stepEnd {
				cycleEnd += spec.Cycle
			}
		}
	}
}

// flush emits one CycleEvent per gate with a non-empty window, in gate
// order (events are therefore globally ordered by (At, Gate)).
func (c *Compiled) flush(gates []*gateState, at time.Duration) {
	if at > c.Spec.Duration {
		at = c.Spec.Duration
	}
	for gi, g := range gates {
		if len(g.readings) == 0 {
			continue
		}
		sort.SliceStable(g.readings, func(i, j int) bool {
			a, b := g.readings[i], g.readings[j]
			if a.At != b.At {
				return a.At < b.At
			}
			return a.Tag < b.Tag
		})
		mobile := make([]int32, 0, len(g.mobile))
		for tag := range g.mobile {
			mobile = append(mobile, tag)
		}
		sort.Slice(mobile, func(i, j int) bool { return mobile[i] < mobile[j] })
		c.Events = append(c.Events, CycleEvent{
			At:       at,
			Gate:     gi,
			Present:  len(g.touched),
			Readings: g.readings,
			Mobile:   mobile,
		})
		g.readings = nil
		g.touched = make(map[int32]bool)
		g.mobile = make(map[int32]bool)
	}
}

// finishStats accumulates per-tag and per-category totals from the
// emitted events.
func (c *Compiled) finishStats() {
	lastGate := make([]int, len(c.Tags))
	for i := range lastGate {
		lastGate[i] = -1
	}
	for _, ev := range c.Events {
		c.Stats.Readings += len(ev.Readings)
		for _, r := range ev.Readings {
			c.Tags[r.Tag].Reads++
			if lastGate[r.Tag] != ev.Gate {
				if lastGate[r.Tag] >= 0 {
					c.Stats.GateChanges++
				}
				lastGate[r.Tag] = ev.Gate
				c.Tags[r.Tag].GateVisits++
			}
		}
	}
	c.Stats.Tags = len(c.Tags)
	c.Stats.Events = len(c.Events)
	c.Stats.PerCategory = make([]CategoryStats, len(c.Spec.Categories))
	for i, cat := range c.Spec.Categories {
		c.Stats.PerCategory[i].Name = cat.Name
	}
	for _, t := range c.Tags {
		c.Stats.PerCategory[t.Category].Tags++
		c.Stats.PerCategory[t.Category].Readings += t.Reads
	}
}

// ReadingsPerMinute bins every reading by its timestamp into one-minute
// buckets covering the duration: the Fig. 3 series. A step longer than
// the duration can time a reading past the end; it lands in the last
// bucket.
func (c *Compiled) ReadingsPerMinute() []int {
	out := make([]int, (c.Spec.Duration+time.Minute-1)/time.Minute)
	for _, ev := range c.Events {
		for _, r := range ev.Readings {
			out[min(int(r.At/time.Minute), len(out)-1)]++
		}
	}
	return out
}

// Digest returns a hex SHA-256 over a canonical binary encoding of the
// compiled tags and timeline — the golden-test fingerprint. Two Compiled
// values with the same digest are byte-identical workloads.
func (c *Compiled) Digest() string {
	h := sha256.New()
	w := func(vs ...any) {
		for _, v := range vs {
			// Writes to a hash never fail. //tagwatch:allow-droppederr
			_ = binary.Write(h, binary.LittleEndian, v)
		}
	}
	w(c.Seed, int64(len(c.Tags)), int64(len(c.Events)))
	for _, t := range c.Tags {
		h.Write([]byte(t.EPC.String()))
		w(int32(t.Category), t.Resident, int64(t.Arrive), int64(t.Depart), t.Parked, int64(t.Reads))
	}
	for _, ev := range c.Events {
		w(int64(ev.At), int32(ev.Gate), int32(ev.Present), int32(len(ev.Readings)), int32(len(ev.Mobile)))
		for _, r := range ev.Readings {
			w(r.Tag, int64(r.At), r.Antenna, r.Channel, r.PhaseRad, r.RSSdBm)
		}
		w(ev.Mobile)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- deterministic draw helpers ----

// pickCategory draws a category index by weight.
func pickCategory(rng *rand.Rand, cats []Category) int {
	total := 0.0
	for _, c := range cats {
		total += c.Weight
	}
	u := rng.Float64() * total
	for i, c := range cats {
		u -= c.Weight
		if u < 0 {
			return i
		}
	}
	return len(cats) - 1
}

// drawGamma draws the parked coupling for one stay.
func drawGamma(rng *rand.Rand, cat Category) float64 {
	alpha := cat.GammaAlpha
	if alpha <= 0 {
		alpha = 3
	}
	g := math.Pow(rng.Float64(), alpha)
	if g < 0.005 {
		g = 0.005
	}
	return g
}

// otherGate picks a gate different from cur.
func otherGate(rng *rand.Rand, n, cur int) int {
	if n < 2 {
		return cur
	}
	g := rng.Intn(n - 1)
	if g >= cur {
		g++
	}
	return g
}

// drawTimes draws k sorted times in (0, d).
func drawTimes(rng *rand.Rand, k int, d time.Duration) []time.Duration {
	if k <= 0 {
		return nil
	}
	out := make([]time.Duration, k)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// arrivalTime draws one batch arrival time: uniform, or triangular around
// the rush peak.
func arrivalTime(rng *rand.Rand, spec Spec) time.Duration {
	if spec.Arrival.RushAt <= 0 {
		return time.Duration(rng.Float64() * float64(spec.Duration))
	}
	// Triangular: peak + (u1+u2-1)·width, clamped into the trace.
	frac := spec.Arrival.RushAt + (rng.Float64()+rng.Float64()-1)*spec.Arrival.RushWidth
	if frac < 0 {
		frac = 0
	}
	if frac > 0.999 {
		frac = 0.999
	}
	return time.Duration(frac * float64(spec.Duration))
}

// jitter returns a duration uniform in [0.5·d, 1.5·d).
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration((0.5 + rng.Float64()) * float64(d))
}

// poisson draws a Poisson variate (Knuth for small means, normal
// approximation for large).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
