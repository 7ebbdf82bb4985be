package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/motion"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
	"tagwatch/internal/stats"
)

// Fig08Result shows a stationary tag's phase distribution in a dynamic
// environment and the GMM modes learned from it.
type Fig08Result struct {
	Phases     []float64
	HistEdges  []float64
	HistCounts []int
	// Learned modes (weight, mean, std), priority order.
	ModeW, ModeMu, ModeSigma []float64
	StrongModes              int // modes above the weight floor
}

// Fig08 parks one tag, lets a walker roam (two extra multipath states) and
// shows that the resulting phase histogram is multi-modal — the GMM's
// justification — and that the self-learning stack recovers the modes.
func Fig08(opt Options) (Fig08Result, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	p := rf.DefaultParams()
	scn := scene.New(rf.NewChannel(p, rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	code := epc.MustParse("30f4ab12cd0045e100000008")
	scn.AddTag(code, scene.Stationary{P: rf.Pt(3, 0, 0)})
	// A person pacing between two rest points near the link, pausing at
	// each — two stable multipath configurations plus transitions.
	scn.AddWalker(scene.Waypoints{
		T: []time.Duration{0, 20 * time.Second, 25 * time.Second, 45 * time.Second, 50 * time.Second},
		P: []rf.Point{
			rf.Pt(1.5, 1.5, 0), rf.Pt(1.5, 1.5, 0),
			rf.Pt(2.0, -1.2, 0), rf.Pt(2.0, -1.2, 0),
			rf.Pt(1.5, 1.5, 0),
		},
	}, complex(0.6, 0))

	cfg := reader.DefaultConfig()
	cfg.HopEvery = 0 // single channel isolates the multipath modes
	r := reader.New(cfg, scn)

	res := Fig08Result{}
	det := motion.NewPhaseMoG(motion.Config{})
	dur := time.Duration(opt.pick(50, 120)) * time.Second
	for r.Now() < dur {
		r.RunRound(reader.RoundOpts{Antenna: 1}, func(rd reader.TagRead) {
			res.Phases = append(res.Phases, rd.PhaseRad)
			det.Observe(rd.EPC, rd.Antenna, rd.Channel, rd.PhaseRad, rd.Time)
		})
	}
	res.HistEdges, res.HistCounts = stats.Histogram(res.Phases, 0, 2*math.Pi, 48)
	st := det.Stack(code, 1, 0)
	if st != nil {
		res.ModeW, res.ModeMu, res.ModeSigma = st.Modes()
	}
	for _, w := range res.ModeW {
		if w >= 0.01 {
			res.StrongModes++
		}
	}
	return res, nil
}

// String renders the Fig. 8 histogram and learned modes.
func (r Fig08Result) String() string {
	var maxC int
	for _, c := range r.HistCounts {
		if c > maxC {
			maxC = c
		}
	}
	t := &table{header: []string{"phase (rad)", "count", "histogram"}}
	for i, e := range r.HistEdges {
		bar := ""
		if maxC > 0 {
			bar = repeat('#', 40*r.HistCounts[i]/maxC)
		}
		if r.HistCounts[i] == 0 {
			continue
		}
		t.add(fmt.Sprintf("%.2f", e), fmt.Sprintf("%d", r.HistCounts[i]), bar)
	}
	m := &table{header: []string{"mode", "weight", "mean", "std"}}
	for i := range r.ModeW {
		m.add(fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.4f", r.ModeW[i]),
			fmt.Sprintf("%.3f", r.ModeMu[i]),
			fmt.Sprintf("%.3f", r.ModeSigma[i]))
	}
	return fmt.Sprintf(`Fig 8 — stationary tag's phase under a moving reflector (%d readings)
%s
learned immobility modes (GMM):
%s
strong (established) modes: %d — a single Gaussian cannot depict this
`, len(r.Phases), t, m, r.StrongModes)
}

func repeat(c byte, n int) string {
	if n <= 0 {
		return ""
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}
