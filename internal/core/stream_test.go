package core

import (
	"reflect"
	"testing"
	"time"

	"tagwatch/internal/schedule"
)

// emitOnce hands a whole read call's readings to emit as one batch at its
// end, keeping batches non-empty, and passes err through.
func emitOnce(emit func([]Reading), reads []Reading, err error) error {
	if len(reads) > 0 {
		emit(reads)
	}
	return err
}

// heldDevice is a SimDevice that delivers the old way: it holds every
// batch until the read call returns, then emits them as one.
type heldDevice struct{ sim *SimDevice }

func (h heldDevice) Now() time.Duration { return h.sim.Now() }

func (h heldDevice) ReadAll(emit func([]Reading)) error {
	var held []Reading
	err := h.sim.ReadAll(collect(&held))
	return emitOnce(emit, held, err)
}

func (h heldDevice) ReadSelective(masks []schedule.Bitmask, dwell time.Duration, emit func([]Reading)) error {
	var held []Reading
	err := h.sim.ReadSelective(masks, dwell, collect(&held))
	return emitOnce(emit, held, err)
}

func (h heldDevice) readAllFor(dwell time.Duration, emit func([]Reading)) {
	emitOnce(emit, h.sim.ReadAllFor(dwell), nil)
}

// differingFields names the CycleReport fields on which a and b differ.
func differingFields(a, b CycleReport) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := range va.NumField() {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// TestStreamingMatchesHeldDelivery: streaming changes when subscribers
// see a reading, nothing else. An instance fed read by read and one fed
// at phase end over identically seeded simulators must agree on every
// cycle report and on the exact sequence of delivered readings.
func TestStreamingMatchesHeldDelivery(t *testing.T) {
	streamed, _, _, _ := paperRig(t, 9, 60, 4, 0)
	base, sim, _, _ := paperRig(t, 9, 60, 4, 0)
	held := New(base.cfg, heldDevice{sim})
	var gotS, gotH []Reading
	streamed.Subscribe(func(r Reading) { gotS = append(gotS, r) })
	held.Subscribe(func(r Reading) { gotH = append(gotH, r) })
	selective, fallbacks := 0, 0
	for i := 0; i < 40; i++ {
		rs, rh := streamed.RunCycle(), held.RunCycle()
		rs.ScheduleCost, rh.ScheduleCost = 0, 0 // wall clock
		if d := differingFields(rs, rh); len(d) > 0 {
			t.Fatalf("cycle %d: streamed and held reports differ in %v", i, d)
		}
		if !reflect.DeepEqual(gotS, gotH) {
			t.Fatalf("cycle %d: subscribers saw different readings (%d streamed, %d held)", i, len(gotS), len(gotH))
		}
		if rs.FellBack {
			fallbacks++
		} else {
			selective++
		}
	}
	if selective < 20 || fallbacks == 0 {
		t.Fatalf("%d selective and %d fallback cycles of 40; want both paths, mostly selective", selective, fallbacks)
	}
}

// TestPhaseIIReadingsReachSubscribersFresh: over a 5 s dwell a reading
// reaches subscribers when its round ends, so none is older on the device
// clock than a tenth of the dwell. Delivered at phase end, the oldest
// would be nearly the whole dwell old.
func TestPhaseIIReadingsReachSubscribersFresh(t *testing.T) {
	tw, dev, _, _ := paperRig(t, 9, 60, 4, 0)
	tw.cfg.PhaseIIDwell = 5 * time.Second
	limit := tw.cfg.PhaseIIDwell / 10
	var ages []time.Duration
	tw.Subscribe(func(r Reading) { ages = append(ages, dev.Now()-r.Time) })
	selective, fallbacks := 0, 0
	for i := 0; i < 8; i++ {
		ages = ages[:0]
		rep := tw.RunCycle()
		if len(ages) != len(rep.PhaseIReads)+len(rep.PhaseIIReads) {
			t.Fatalf("cycle %d: %d deliveries for %d readings", i, len(ages), len(rep.PhaseIReads)+len(rep.PhaseIIReads))
		}
		var oldest time.Duration
		for _, age := range ages[len(rep.PhaseIReads):] {
			oldest = max(oldest, age)
		}
		if oldest >= limit {
			t.Fatalf("cycle %d (fell back: %v): a Phase II reading reached subscribers %v old, want under %v",
				i, rep.FellBack, oldest, limit)
		}
		if rep.FellBack {
			fallbacks++
		} else {
			selective++
		}
	}
	if selective == 0 || fallbacks == 0 {
		t.Fatalf("%d selective and %d fallback cycles; want both delivery paths", selective, fallbacks)
	}
}

// TestReadingsDeliveredInReports: in-process, subscribers get readings
// in reports of at most reportEvery reads, in selective and fallback
// cycles alike, and a full report arrives while the device clock still
// stands at its last read's singulation, so a reading waits for at most
// reportEvery-1 further reads or its round's end, however long the round.
func TestReadingsDeliveredInReports(t *testing.T) {
	tw, dev, _, _ := paperRig(t, 9, 60, 4, 0)
	var (
		report []Reading // the readings delivered at one device clock
		clock  time.Duration
		full   int
	)
	check := func() {
		switch n := len(report); {
		case n > reportEvery:
			t.Fatalf("a report of %d readings, want at most %d", n, reportEvery)
		case n == reportEvery:
			full++
			if last := report[n-1].Time; clock != last {
				t.Fatalf("a full report reached subscribers at %v, after its last singulation at %v", clock, last)
			}
		}
	}
	tw.Subscribe(func(r Reading) {
		if now := dev.Now(); now != clock {
			check()
			report, clock = report[:0], now
		}
		if r.Time > clock {
			t.Fatalf("a reading of %v reached subscribers at %v", r.Time, clock)
		}
		report = append(report, r)
	})
	selective, fallbacks := 0, 0
	for i := 0; i < 8; i++ {
		if rep := tw.RunCycle(); rep.FellBack {
			fallbacks++
		} else {
			selective++
		}
	}
	check()
	if full == 0 {
		t.Fatal("no report was full; want rounds longer than one report")
	}
	if selective == 0 || fallbacks == 0 {
		t.Fatalf("%d selective and %d fallback cycles; want both delivery paths", selective, fallbacks)
	}
}
