// Package experiments regenerates every figure of the paper's evaluation
// (§2.3 and §7) against the simulated substrate. Each FigNN function is a
// self-contained experiment returning a printable result; cmd/experiments
// drives them from the command line and bench_test.go wraps them as
// benchmarks. EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
)

// Options tunes experiment scale.
type Options struct {
	// Seed drives all randomness; experiments are reproducible per seed.
	Seed int64
	// Quick reduces repetitions/populations for fast CI runs; the full
	// settings match the paper's scales.
	Quick bool
}

// pick chooses between the quick and full value of a scale parameter.
func (o Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// readerConfig is reader.DefaultConfig with a Select filter limit of f:
// Phase II runs each plan as union rounds of up to f masks. Figs. 15–18
// use f = 1, §6's execution of one AISpec per bitmask.
func readerConfig(f int) reader.Config {
	cfg := reader.DefaultConfig()
	cfg.MaxSelectFilters = f
	return cfg
}

// table renders rows of columns with a header, right-aligned.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// gridScene builds a scene with one antenna and n stationary tags laid out
// on a grid in range.
func gridScene(rng *rand.Rand, n int) (*scene.Scene, []epc.EPC, error) {
	p := rf.DefaultParams()
	scn := scene.New(rf.NewChannel(p, rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	codes, err := epc.RandomPopulation(rng, n, 96)
	if err != nil {
		return nil, nil, err
	}
	for i, c := range codes {
		x := 0.4 + float64(i%10)*0.3
		y := 0.4 + float64(i/10)*0.3
		scn.AddTag(c, scene.Stationary{P: rf.Pt(x, y, 0)})
	}
	return scn, codes, nil
}

// turntableScene builds the §7.3 rig: one antenna, nMob tags on a spinning
// turntable and the rest parked on a grid.
func turntableScene(rng *rand.Rand, nTotal, nMob int) (*scene.Scene, []epc.EPC, []epc.EPC, error) {
	p := rf.DefaultParams()
	scn := scene.New(rf.NewChannel(p, rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	codes, err := epc.RandomPopulation(rng, nTotal, 96)
	if err != nil {
		return nil, nil, nil, err
	}
	movers := codes[:nMob]
	static := codes[nMob:]
	for i, c := range movers {
		scn.AddTag(c, scene.Circle{
			Center:     rf.Pt(2.0, 2.0, 0),
			Radius:     0.2,
			Speed:      0.7,
			StartAngle: float64(i) * 0.7,
		})
	}
	for i, c := range static {
		x := 0.4 + float64(i%20)*0.15
		y := 0.4 + float64(i/20)*0.15
		scn.AddTag(c, scene.Stationary{P: rf.Pt(x, y, 0)})
	}
	return scn, movers, static, nil
}

// hz converts a count over a virtual span into a rate.
func hz(count int, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(count) / span.Seconds()
}
