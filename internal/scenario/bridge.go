package scenario

import (
	"math/rand"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
)

// BuildScene compiles the spec's geometry into an internal/scene world
// for simulator-driven experiments: antennas placed per gate, and up to
// maxTags tags with trajectories shaped like the compiled population
// (residents parked near their home gate, flowing tags crossing the route
// on conveyor-like lines). The physical layer — multipath, phase noise,
// hopping — then comes from the scene's RF channel rather than the
// synthetic draws of Compile.
func (s Spec) BuildScene(rng *rand.Rand, maxTags int) (*scene.Scene, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	if maxTags <= 0 {
		maxTags = 64
	}
	sc := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	for _, g := range s.Gates {
		for a := 0; a < g.Antennas; a++ {
			off := (float64(a) - float64(g.Antennas-1)/2) * g.Spacing
			sc.AddAntenna(rf.Pt(g.Center.X+off, g.Center.Y, g.Center.Z))
		}
	}

	nRes := s.Residents
	nFlow := s.Population
	if nRes+nFlow > maxTags {
		// Sample proportionally, keeping at least one of each present kind.
		scale := float64(maxTags) / float64(nRes+nFlow)
		nRes = int(float64(nRes) * scale)
		nFlow = maxTags - nRes
		if s.Residents > 0 && nRes == 0 {
			nRes, nFlow = 1, nFlow-1
		}
	}
	idx := uint32(0)
	nextEPC := func(cat int) (epc.EPC, error) {
		pop, err := epc.SequentialPopulation([]byte{0x30, 0x1C, 0xA0 | byte(cat)}, idx, 1, epc.StandardBits)
		if err != nil {
			return epc.EPC{}, err
		}
		idx++
		return pop[0], nil
	}
	for i := 0; i < nRes; i++ {
		cat := pickCategory(rng, s.Categories)
		code, err := nextEPC(cat)
		if err != nil {
			return nil, err
		}
		g := s.Gates[rng.Intn(len(s.Gates))]
		pos := rf.Pt(g.Center.X+(rng.Float64()-0.5)*4, g.Center.Y+1+rng.Float64()*2, 0.5+rng.Float64())
		sc.AddTag(code, scene.Stationary{P: pos})
	}
	for i := 0; i < nFlow; i++ {
		cat := pickCategory(rng, s.Categories)
		code, err := nextEPC(cat)
		if err != nil {
			return nil, err
		}
		sc.AddTag(code, s.routeTrajectory(rng))
	}
	return sc, nil
}

// routeTrajectory builds one flowing tag's path along the route.
func (s Spec) routeTrajectory(rng *rand.Rand) scene.Trajectory {
	depart := time.Duration(rng.Float64() * float64(s.Duration))
	if len(s.Route) == 1 {
		// Single gate: a straight conveyor pass through its field.
		g := s.Gates[s.Route[0]]
		speed := 4.0 / s.CrossTime.Seconds() // field span ≈ 4 m
		return scene.Line{
			Start:  rf.Pt(g.Center.X-2, g.Center.Y+1, 1),
			Dir:    rf.Pt(1, 0, 0),
			Speed:  speed,
			Depart: depart,
			Arrive: depart + jitter(rng, s.CrossTime),
		}
	}
	w := scene.Waypoints{}
	t := depart
	for li, gi := range s.Route {
		g := s.Gates[gi]
		p := rf.Pt(g.Center.X, g.Center.Y+1, 1)
		w.T = append(w.T, t)
		w.P = append(w.P, p)
		t += jitter(rng, s.CrossTime)
		w.T = append(w.T, t)
		w.P = append(w.P, rf.Pt(p.X+2, p.Y, p.Z))
		if li < len(s.Route)-1 && s.TransitTime > 0 {
			t += jitter(rng, s.TransitTime)
		}
	}
	return w
}
