package scene

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/rf"
)

func testScene(seed int64) *Scene {
	rng := rand.New(rand.NewSource(seed))
	p := rf.DefaultParams()
	p.PhaseNoiseStd = 0
	p.RSSNoiseStd = 0
	p.RSSQuantum = 0
	return New(rf.NewChannel(p, rng), rng)
}

func TestStationary(t *testing.T) {
	s := Stationary{P: rf.Pt(1, 2, 3)}
	if s.Pos(0) != rf.Pt(1, 2, 3) || s.Pos(time.Hour) != rf.Pt(1, 2, 3) {
		t.Fatal("stationary must not move")
	}
	if s.Moving(time.Second) {
		t.Fatal("stationary must not report motion")
	}
}

func TestCircleKinematics(t *testing.T) {
	// Paper rig: r = 20 cm, v = 0.7 m/s.
	c := Circle{Center: rf.Pt(0, 0, 0), Radius: 0.2, Speed: 0.7}
	p0 := c.Pos(0)
	if math.Abs(p0.Dist(rf.Pt(0.2, 0, 0))) > 1e-12 {
		t.Fatalf("t=0 position %v", p0)
	}
	// After one full period the train returns to the start.
	period := time.Duration(2 * math.Pi * 0.2 / 0.7 * float64(time.Second.Nanoseconds()))
	if d := c.Pos(period).Dist(p0); d > 1e-6 {
		t.Fatalf("after one period distance to start = %v", d)
	}
	// Speed check: positions 10 ms apart are ~7 mm apart.
	d := c.Pos(0).Dist(c.Pos(10 * time.Millisecond))
	if math.Abs(d-0.007) > 1e-4 {
		t.Fatalf("10 ms displacement = %v m, want ≈0.007", d)
	}
	if !c.Moving(0) {
		t.Fatal("rotating circle must report motion")
	}
	if (Circle{Radius: 0, Speed: 1}).Moving(0) {
		t.Fatal("zero-radius circle is stationary")
	}
	if (Circle{Radius: 0, Speed: 1, Center: rf.Pt(1, 1, 1)}).Pos(0) != rf.Pt(1, 1, 1) {
		t.Fatal("zero-radius circle pins at centre")
	}
}

func TestLineConveyor(t *testing.T) {
	l := Line{
		Start:  rf.Pt(0, 0, 0),
		Dir:    rf.Pt(2, 0, 0), // non-unit on purpose
		Speed:  1.5,
		Depart: time.Second,
		Arrive: 3 * time.Second,
	}
	if l.Pos(0) != l.Start || l.Moving(0) {
		t.Fatal("before departure the parcel is parked")
	}
	mid := l.Pos(2 * time.Second)
	if math.Abs(mid.X-1.5) > 1e-9 {
		t.Fatalf("1 s after departure at 1.5 m/s should be x=1.5, got %v", mid)
	}
	if !l.Moving(2 * time.Second) {
		t.Fatal("mid-transit must report motion")
	}
	end := l.Pos(10 * time.Second)
	if math.Abs(end.X-3.0) > 1e-9 || l.Moving(10*time.Second) {
		t.Fatalf("after arrival the parcel parks at x=3: %v", end)
	}
	if (Line{Dir: rf.Pt(0, 0, 0), Speed: 1}).Pos(time.Second) != (rf.Point{}) {
		t.Fatal("zero direction stays put")
	}
}

func TestStepMove(t *testing.T) {
	s := StepMove{From: rf.Pt(1, 0, 0), Delta: rf.Pt(0.03, 0, 0), At: time.Second}
	if s.Pos(0) != rf.Pt(1, 0, 0) {
		t.Fatal("before step")
	}
	if s.Pos(2*time.Second) != rf.Pt(1.03, 0, 0) {
		t.Fatal("after instantaneous step")
	}
	// Gradual move.
	g := StepMove{From: rf.Pt(0, 0, 0), Delta: rf.Pt(1, 0, 0), At: 0, Over: time.Second}
	if p := g.Pos(500 * time.Millisecond); math.Abs(p.X-0.5) > 1e-9 {
		t.Fatalf("mid-step position %v", p)
	}
	if !g.Moving(500 * time.Millisecond) {
		t.Fatal("mid-step must report motion")
	}
	if g.Moving(2 * time.Second) {
		t.Fatal("after step must be parked")
	}
}

func TestWaypoints(t *testing.T) {
	w := Waypoints{
		T: []time.Duration{0, time.Second, 2 * time.Second},
		P: []rf.Point{rf.Pt(0, 0, 0), rf.Pt(1, 0, 0), rf.Pt(1, 1, 0)},
	}
	if w.Pos(-time.Second) != rf.Pt(0, 0, 0) {
		t.Fatal("clamp before first waypoint")
	}
	if p := w.Pos(500 * time.Millisecond); math.Abs(p.X-0.5) > 1e-9 {
		t.Fatalf("interpolated position %v", p)
	}
	if p := w.Pos(1500 * time.Millisecond); math.Abs(p.Y-0.5) > 1e-9 {
		t.Fatalf("second segment position %v", p)
	}
	if w.Pos(time.Hour) != rf.Pt(1, 1, 0) {
		t.Fatal("clamp after last waypoint")
	}
	if !w.Moving(500*time.Millisecond) || w.Moving(3*time.Second) {
		t.Fatal("motion flags wrong")
	}
	if (Waypoints{}).Pos(0) != (rf.Point{}) {
		t.Fatal("empty waypoints yield origin")
	}
}

func TestWaypointsMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched waypoint arrays must panic")
		}
	}()
	w := Waypoints{T: []time.Duration{0}, P: []rf.Point{{}, {}}}
	w.Pos(time.Second)
}

func TestSceneTagsAndAntennas(t *testing.T) {
	s := testScene(1)
	rng := rand.New(rand.NewSource(2))
	pop, err := epc.RandomPopulation(rng, 3, 96)
	if err != nil {
		t.Fatal(err)
	}
	for i, code := range pop {
		s.AddTag(code, Stationary{P: rf.Pt(float64(i), 0, 0)})
	}
	if id := s.AddAntenna(rf.Pt(0, 0, 2)); id != 1 {
		t.Fatalf("first antenna ID = %d, want 1", id)
	}
	if id := s.AddAntenna(rf.Pt(5, 5, 2)); id != 2 {
		t.Fatalf("second antenna ID = %d, want 2", id)
	}
	for i, code := range pop {
		if s.Tags[i].EPC != code {
			t.Fatalf("tag %d has EPC %s, want %s in the order added", i, s.Tags[i].EPC, code)
		}
	}
	if s.Tags[0].Memory.EPC() != pop[0] {
		t.Fatal("tag memory must carry its EPC")
	}
}

func TestSceneMeasureTagDeterministic(t *testing.T) {
	s := testScene(3)
	tag := s.AddTag(epc.MustParse("30f4ab12cd0045e100000001"), Stationary{P: rf.Pt(2, 0, 0)})
	ant := Antenna{ID: 1, Pos: rf.Pt(0, 0, 0)}
	m1 := s.MeasureTag(tag, ant, 0, 5)
	m2 := s.MeasureTag(tag, ant, time.Second, 5)
	if rf.PhaseDist(m1.PhaseRad, m2.PhaseRad) > 1e-9 {
		t.Fatal("stationary tag in a static scene must hold its phase")
	}
	if !m1.Readable {
		t.Fatal("2 m link must be readable")
	}
}

func TestSceneWalkersPerturbPhase(t *testing.T) {
	s := testScene(4)
	tag := s.AddTag(epc.MustParse("30f4ab12cd0045e100000001"), Stationary{P: rf.Pt(3, 0, 0)})
	ant := Antenna{ID: 1, Pos: rf.Pt(0, 0, 0)}
	before := s.MeasureTag(tag, ant, 0, 0)
	// A walker crossing near the link at t=10s.
	s.AddWalker(Waypoints{
		T: []time.Duration{9 * time.Second, 11 * time.Second},
		P: []rf.Point{rf.Pt(1.5, -5, 0), rf.Pt(1.5, 5, 0)},
	}, complex(0.5, 0))
	far := s.MeasureTag(tag, ant, 0, 0) // walker still 5 m off the link
	// At t=10.3 s the walker is 1.5 m off the LOS: the path excess puts the
	// reflection well out of phase with the direct path. (At exactly t=10 s
	// it stands *on* the segment, where the excess — and thus the phase
	// perturbation — is zero.)
	near := s.MeasureTag(tag, ant, 10300*time.Millisecond, 0)
	if rf.PhaseDist(before.PhaseRad, far.PhaseRad) > 0.05 {
		t.Fatal("distant walker should barely shift phase")
	}
	if rf.PhaseDist(before.PhaseRad, near.PhaseRad) < 0.05 {
		t.Fatal("walker crossing the first Fresnel zones must shift phase")
	}
}

func TestSceneMovingTags(t *testing.T) {
	s := testScene(5)
	moving := s.AddTag(epc.MustParse("000000000000000000000001"), Circle{Radius: 0.2, Speed: 0.7})
	parked := s.AddTag(epc.MustParse("000000000000000000000002"), Stationary{P: rf.Pt(1, 1, 0)})
	got := s.MovingTags(time.Second)
	if !got[moving.EPC] || got[parked.EPC] {
		t.Fatalf("MovingTags = %v", got)
	}
	if len(s.ReflectorsAt(0)) != 0 {
		t.Fatal("no walkers yet")
	}
}

func TestThetaZeroVariesAcrossTags(t *testing.T) {
	s := testScene(6)
	a := s.AddTag(epc.MustParse("01"), Stationary{})
	b := s.AddTag(epc.MustParse("02"), Stationary{})
	if a.Theta0 == b.Theta0 {
		t.Fatal("tags should draw distinct θ₀")
	}
	if a.Theta0 < 0 || a.Theta0 >= 2*math.Pi {
		t.Fatalf("θ₀ out of range: %v", a.Theta0)
	}
}
