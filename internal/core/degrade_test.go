package core

// Degraded-operation regression tests: what the cycle pipeline does when
// the device underneath it stalls or fails. The contract under test is
// the one the fleet layer depends on — a dead transport must surface as
// a cycle error (never a silent "0 tags present" report), must not spin,
// and must not erase learned state.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/schedule"
)

// fakeDevice scripts Device behaviour per call: a frozen or advancing
// clock and canned ReadAll/ReadSelective results, emitted as one batch
// before the scripted error is returned.
type fakeDevice struct {
	now       time.Duration
	readAll   func(call int) ([]Reading, error)
	selective func(masks []schedule.Bitmask, dwell time.Duration) ([]Reading, error)
	allCalls  int
	selCalls  int
}

func (d *fakeDevice) Now() time.Duration { return d.now }

func (d *fakeDevice) ReadAll(emit func([]Reading)) error {
	d.allCalls++
	if d.readAll == nil {
		return nil
	}
	reads, err := d.readAll(d.allCalls)
	return emitOnce(emit, reads, err)
}

func (d *fakeDevice) ReadSelective(masks []schedule.Bitmask, dwell time.Duration, emit func([]Reading)) error {
	d.selCalls++
	if d.selective == nil {
		return nil
	}
	reads, err := d.selective(masks, dwell)
	return emitOnce(emit, reads, err)
}

func testEPC(t *testing.T, hex string) epc.EPC {
	t.Helper()
	code, err := epc.Parse(hex)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestStalledDeviceDoesNotSpin: a device that returns nothing and never
// advances its clock (a wedged transport that has not yet errored). The
// generic fallback loop in Phase II consumes dwell in device time; with a
// frozen clock that loop would never reach its deadline — the pipeline
// must bail instead of spinning forever.
func TestStalledDeviceDoesNotSpin(t *testing.T) {
	dev := &fakeDevice{}
	cfg := DefaultConfig()
	cfg.PhaseIIDwell = 5 * time.Second // never consumable: the clock is frozen
	tw := New(cfg, dev)

	done := make(chan CycleReport, 1)
	go func() { done <- tw.RunCycle() }()
	select {
	case rep := <-done:
		if len(rep.PhaseIIReads) != 0 {
			t.Fatalf("stalled device produced %d Phase II readings", len(rep.PhaseIIReads))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunCycle spun on a stalled device with a frozen clock")
	}
	// The stalled loop must have bailed after one probing pass, not
	// hammered the dead transport.
	if dev.allCalls > 2 {
		t.Fatalf("stalled device probed %d times in one cycle", dev.allCalls)
	}
}

// TestPhaseIErrorSkipsPhaseII: a transport that dies during Phase I must
// surface a cycle error, keep whatever partial readings arrived, and not
// attempt Phase II over the dead link.
func TestPhaseIErrorSkipsPhaseII(t *testing.T) {
	code := testEPC(t, "300000000000000000000001")
	boom := errors.New("carrier lost")
	dev := &fakeDevice{
		readAll: func(int) ([]Reading, error) {
			return []Reading{{EPC: code, Time: 10 * time.Millisecond, Antenna: 1}}, boom
		},
	}
	tw := New(DefaultConfig(), dev)
	var delivered int
	tw.Subscribe(func(Reading) { delivered++ })

	rep := tw.RunCycle()
	if rep.Healthy() {
		t.Fatal("cycle over a dying transport reported healthy")
	}
	if !errors.Is(rep.Err, boom) || !strings.Contains(rep.Err.Error(), "phase I") {
		t.Fatalf("Err = %v, want wrapped phase I carrier loss", rep.Err)
	}
	// The partial reading is a real observation: delivered and counted.
	if delivered != 1 || len(rep.PhaseIReads) != 1 {
		t.Fatalf("partial readings dropped: delivered=%d phase1=%d", delivered, len(rep.PhaseIReads))
	}
	// Phase II never ran: no selective call, no second full pass.
	if dev.allCalls != 1 || dev.selCalls != 0 {
		t.Fatalf("phase II ran over a dead link: readAll=%d selective=%d", dev.allCalls, dev.selCalls)
	}
	if tw.Metrics().CycleErrors != 1 {
		t.Fatalf("CycleErrors = %d, want 1", tw.Metrics().CycleErrors)
	}
}

// TestPhaseIIErrorSurfaces: Phase I succeeds, then the transport dies in
// the Phase II fallback loop — the report must carry the error while
// keeping both phases' readings.
func TestPhaseIIErrorSurfaces(t *testing.T) {
	code := testEPC(t, "300000000000000000000002")
	boom := errors.New("socket reset")
	dev := &fakeDevice{}
	dev.readAll = func(call int) ([]Reading, error) {
		dev.now += 50 * time.Millisecond
		r := []Reading{{EPC: code, Time: dev.now, Antenna: 1}}
		if call == 1 {
			return r, nil // Phase I: healthy
		}
		return r, boom // Phase II fallback pass: dies mid-read
	}
	cfg := DefaultConfig()
	cfg.PhaseIIDwell = time.Second
	tw := New(cfg, dev)

	rep := tw.RunCycle()
	if !rep.FellBack {
		t.Fatalf("single stationary tag must fall back, got targets %v", rep.Targets)
	}
	if !errors.Is(rep.Err, boom) || !strings.Contains(rep.Err.Error(), "phase II") {
		t.Fatalf("Err = %v, want wrapped phase II reset", rep.Err)
	}
	if len(rep.PhaseIReads) != 1 || len(rep.PhaseIIReads) != 1 {
		t.Fatalf("partial readings dropped: phase1=%d phase2=%d", len(rep.PhaseIReads), len(rep.PhaseIIReads))
	}
}

// TestUnhealthyPauseGrowth pins the degraded-mode backoff shape: doubling
// from max(pause, base), saturating at the cap, never below the base.
func TestUnhealthyPauseGrowth(t *testing.T) {
	cases := []struct {
		pause time.Duration
		n     int
		want  time.Duration
	}{
		{0, 1, 100 * time.Millisecond},
		{0, 2, 200 * time.Millisecond},
		{0, 4, 800 * time.Millisecond},
		{0, 100, 10 * time.Second},
		{time.Second, 1, time.Second},
		{time.Second, 3, 4 * time.Second},
		{time.Second, 6, 10 * time.Second},
		{30 * time.Second, 1, 10 * time.Second},
	}
	for _, tc := range cases {
		if got := unhealthyPause(tc.pause, tc.n); got != tc.want {
			t.Errorf("unhealthyPause(%v, %d) = %v, want %v", tc.pause, tc.n, got, tc.want)
		}
	}
}

// TestRunDegradesOnFailingDevice: the continuous loop keeps delivering
// error-carrying reports from a dead device instead of going quiet or
// reporting empty-but-healthy cycles.
func TestRunDegradesOnFailingDevice(t *testing.T) {
	boom := errors.New("reader unplugged")
	dev := &fakeDevice{readAll: func(int) ([]Reading, error) { return nil, boom }}
	tw := New(DefaultConfig(), dev)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := tw.Run(ctx, 0)

	for i := 0; i < 3; i++ {
		select {
		case rep, ok := <-out:
			if !ok {
				t.Fatal("report channel closed early")
			}
			if rep.Err == nil {
				t.Fatalf("cycle %d from a dead device reported healthy", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no report %d from the degraded loop (pause runaway?)", i)
		}
	}
	cancel()
	for range out {
	}
}
