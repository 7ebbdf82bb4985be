// Package scene holds the kinematic world the simulator reads from: tag and
// antenna placement, tag motion (trajectories), and moving reflectors
// (people walking through the paper's office). Time inside the simulator is
// virtual — a time.Duration offset from the start of the experiment — so
// experiments covering hours of trace (Fig. 3) run in milliseconds and are
// perfectly reproducible.
package scene

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/rf"
)

// Trajectory yields the position of an object at virtual time t. A
// trajectory also knows whether the object is in motion at t, which is the
// ground truth the motion-assessment experiments score against.
type Trajectory interface {
	Pos(t time.Duration) rf.Point
	Moving(t time.Duration) bool
}

// Stationary is a trajectory pinned at one point.
type Stationary struct{ P rf.Point }

// Pos implements Trajectory.
func (s Stationary) Pos(time.Duration) rf.Point { return s.P }

// Moving implements Trajectory.
func (s Stationary) Moving(time.Duration) bool { return false }

// Circle moves along a circle of the given radius at constant speed — the
// paper's toy train on a circular/oval track and its spinning turntable.
type Circle struct {
	Center     rf.Point
	Radius     float64 // m
	Speed      float64 // m/s along the arc
	StartAngle float64 // rad
}

// Pos implements Trajectory.
func (c Circle) Pos(t time.Duration) rf.Point {
	if c.Radius == 0 {
		return c.Center
	}
	ang := c.StartAngle + c.Speed/c.Radius*t.Seconds()
	return rf.Pt(c.Center.X+c.Radius*math.Cos(ang), c.Center.Y+c.Radius*math.Sin(ang), c.Center.Z)
}

// Moving implements Trajectory.
func (c Circle) Moving(time.Duration) bool { return c.Speed != 0 && c.Radius != 0 }

// Line moves from Start in direction Dir (normalised internally) at Speed,
// beginning at Depart and stopping (parking) at Arrive — a parcel on a
// conveyor. Before Depart and after Arrive the object is stationary.
type Line struct {
	Start  rf.Point
	Dir    rf.Point
	Speed  float64 // m/s
	Depart time.Duration
	Arrive time.Duration
}

// Pos implements Trajectory.
func (l Line) Pos(t time.Duration) rf.Point {
	if t < l.Depart {
		return l.Start
	}
	if t > l.Arrive {
		t = l.Arrive
	}
	n := l.Dir.Norm()
	if n == 0 {
		return l.Start
	}
	d := l.Speed * (t - l.Depart).Seconds()
	return l.Start.Add(l.Dir.Scale(d / n))
}

// Moving implements Trajectory.
func (l Line) Moving(t time.Duration) bool {
	return l.Speed != 0 && t >= l.Depart && t <= l.Arrive
}

// StepMove sits at From until At, then translates to From+Delta over Over
// (instantaneous if Over is zero) and parks — the displacement rig of the
// sensitivity experiment (Fig. 13: "move a tag away in a random direction
// with a displacement ranging from 1 cm to 5 cm").
type StepMove struct {
	From  rf.Point
	Delta rf.Point
	At    time.Duration
	Over  time.Duration
}

// Pos implements Trajectory.
func (s StepMove) Pos(t time.Duration) rf.Point {
	switch {
	case t < s.At:
		return s.From
	case s.Over <= 0 || t >= s.At+s.Over:
		return s.From.Add(s.Delta)
	default:
		frac := float64(t-s.At) / float64(s.Over)
		return s.From.Add(s.Delta.Scale(frac))
	}
}

// Moving implements Trajectory.
func (s StepMove) Moving(t time.Duration) bool {
	return t >= s.At && (s.Over > 0 && t < s.At+s.Over || s.Over <= 0 && t == s.At)
}

// Waypoints interpolates linearly between timestamped points; before the
// first and after the last waypoint the object is parked.
type Waypoints struct {
	T []time.Duration
	P []rf.Point
}

// Pos implements Trajectory.
func (w Waypoints) Pos(t time.Duration) rf.Point {
	if len(w.P) == 0 {
		return rf.Point{}
	}
	if len(w.T) != len(w.P) {
		panic(fmt.Sprintf("scene: waypoints have %d times but %d points", len(w.T), len(w.P)))
	}
	if t <= w.T[0] {
		return w.P[0]
	}
	last := len(w.T) - 1
	if t >= w.T[last] {
		return w.P[last]
	}
	for i := 1; i <= last; i++ {
		if t <= w.T[i] {
			span := w.T[i] - w.T[i-1]
			if span <= 0 {
				return w.P[i]
			}
			frac := float64(t-w.T[i-1]) / float64(span)
			return w.P[i-1].Add(w.P[i].Sub(w.P[i-1]).Scale(frac))
		}
	}
	return w.P[last]
}

// Moving implements Trajectory.
func (w Waypoints) Moving(t time.Duration) bool {
	if len(w.T) < 2 || t < w.T[0] || t > w.T[len(w.T)-1] {
		return false
	}
	for i := 1; i < len(w.T); i++ {
		if t <= w.T[i] {
			return w.P[i] != w.P[i-1]
		}
	}
	return false
}

// Tag is one physical tag in the scene: its EPC identity, Gen2 memory
// layout, kinematics, and constant backscatter phase offset θ₀.
type Tag struct {
	EPC    epc.EPC
	Memory *epc.Memory
	Traj   Trajectory
	Theta0 float64 // constant tag phase offset in rad
}

// Walker is a moving reflector — a person or vehicle that perturbs the
// multipath environment without carrying a tag.
type Walker struct {
	Traj  Trajectory
	Coeff complex128
}

// Antenna is one reader antenna port.
type Antenna struct {
	ID  int // 1-based, as LLRP numbers antenna ports
	Pos rf.Point
}

// Scene is the complete simulated world.
type Scene struct {
	Tags     []*Tag
	Walkers  []Walker
	Antennas []Antenna
	Channel  *rf.Channel
	rng      *rand.Rand
}

// New builds an empty scene with the given RF channel and randomness
// source. Every stochastic draw in the simulation flows from rng, so a
// fixed seed reproduces an entire experiment.
func New(ch *rf.Channel, rng *rand.Rand) *Scene {
	return &Scene{Channel: ch, rng: rng}
}

// RNG exposes the scene's randomness source for components that must share
// the deterministic stream (the reader's slot draws, measurement noise).
func (s *Scene) RNG() *rand.Rand { return s.rng }

// AddTag places a tag with the given identity and trajectory, drawing a
// random θ₀, and returns it.
func (s *Scene) AddTag(code epc.EPC, traj Trajectory) *Tag {
	t := &Tag{EPC: code, Memory: epc.NewMemory(code), Traj: traj, Theta0: s.rng.Float64() * 2 * math.Pi}
	s.Tags = append(s.Tags, t)
	return t
}

// AddWalker adds a moving reflector.
func (s *Scene) AddWalker(traj Trajectory, coeff complex128) {
	s.Walkers = append(s.Walkers, Walker{Traj: traj, Coeff: coeff})
}

// AddAntenna places a reader antenna and returns its 1-based port ID.
func (s *Scene) AddAntenna(pos rf.Point) int {
	id := len(s.Antennas) + 1
	s.Antennas = append(s.Antennas, Antenna{ID: id, Pos: pos})
	return id
}

// ReflectorsAt snapshots all walker positions at virtual time t.
func (s *Scene) ReflectorsAt(t time.Duration) []rf.Reflector {
	if len(s.Walkers) == 0 {
		return nil
	}
	out := make([]rf.Reflector, len(s.Walkers))
	for i, w := range s.Walkers {
		out[i] = rf.Reflector{Pos: w.Traj.Pos(t), Coeff: w.Coeff}
	}
	return out
}

// MeasureTag produces one physical-layer observation of tag from the given
// antenna at virtual time t on hop channel chanIdx.
func (s *Scene) MeasureTag(tag *Tag, ant Antenna, t time.Duration, chanIdx int) rf.Measurement {
	return s.Channel.Measure(s.rng, ant.Pos, tag.Traj.Pos(t), tag.Theta0, chanIdx, s.ReflectorsAt(t))
}

// MovingTags returns the EPCs of tags whose trajectories report motion at
// virtual time t — the experiment ground truth.
func (s *Scene) MovingTags(t time.Duration) map[epc.EPC]bool {
	out := make(map[epc.EPC]bool)
	for _, tag := range s.Tags {
		if tag.Traj.Moving(t) {
			out[tag.EPC] = true
		}
	}
	return out
}

// OfficeWalker builds a person-like trajectory: long seated pauses at a
// small set of habitual spots, punctuated by short walks between them at
// walking speed. Habitual spots quantise the multipath a tag sees into
// recurring states — the environment the paper's GMM is designed for.
func OfficeWalker(rng *rand.Rand, spots []rf.Point, total time.Duration) Trajectory {
	if len(spots) == 0 {
		return Stationary{}
	}
	const walkSpeed = 0.8 // m/s
	w := Waypoints{}
	pos := spots[0]
	t := time.Duration(0)
	w.T = append(w.T, t)
	w.P = append(w.P, pos)
	for t < total {
		pause := time.Duration(20+rng.Intn(40)) * time.Second
		t += pause
		w.T = append(w.T, t)
		w.P = append(w.P, pos)
		next := spots[rng.Intn(len(spots))]
		walk := time.Duration(float64(pos.Dist(next))/walkSpeed*float64(time.Second)) + time.Second
		t += walk
		pos = next
		w.T = append(w.T, t)
		w.P = append(w.P, pos)
	}
	return w
}
