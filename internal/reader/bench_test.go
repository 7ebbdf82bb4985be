package reader

import (
	"math/rand"
	"testing"

	"tagwatch/internal/epc"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
)

func benchReader(b *testing.B, n int) *Reader {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	codes, err := epc.RandomPopulation(rng, n, 96)
	if err != nil {
		b.Fatal(err)
	}
	for i, c := range codes {
		// 20 columns keeps even a 400-tag grid well inside read range.
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.4+float64(i%20)*0.25, 0.4+float64(i/20)*0.25, 0)})
	}
	return New(DefaultConfig(), scn)
}

func BenchmarkRound40Tags(b *testing.B) {
	r := benchReader(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reads := 0
		r.RunRound(RoundOpts{Antenna: 1}, func(TagRead) { reads++ })
		if reads != 40 {
			b.Fatalf("reads = %d", reads)
		}
	}
}

func BenchmarkRound400Tags(b *testing.B) {
	r := benchReader(b, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reads := 0
		r.RunRound(RoundOpts{Antenna: 1}, func(TagRead) { reads++ })
		if reads != 400 {
			b.Fatalf("reads = %d", reads)
		}
	}
}
