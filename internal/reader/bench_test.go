package reader

import (
	"math/rand"
	"testing"

	"tagwatch/internal/epc"
	"tagwatch/internal/gen2"
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
	r := New(DefaultConfig(), scn)
	// One round first, so every tag's link-layer state exists before the
	// timer starts.
	r.RunRound(RoundOpts{Antenna: 1}, nil)
	return r
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

// BenchmarkSelectiveRound400Tags runs a fused Phase II round: a 5-bit and
// a 6-bit mask, united, that select 25 of 400 energised tags.
func BenchmarkSelectiveRound400Tags(b *testing.B) {
	r := benchReader(b, 400)
	var filters []gen2.SelectCmd
	for i, c := range r.Scene().Tags[:2] {
		mask, err := c.EPC.Slice(8*i, 5+i)
		if err != nil {
			b.Fatal(err)
		}
		filters = append(filters, gen2.SelectCmd{Action: gen2.ActionAssertNothing, MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset + 8*i, Mask: mask})
	}
	want := 0
	for _, st := range r.Scene().Tags {
		if filters[0].Matches(st.Memory) || filters[1].Matches(st.Memory) {
			want++
		}
	}
	opts := RoundOpts{Antenna: 1, Filters: filters}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reads := 0
		r.RunRound(opts, func(TagRead) { reads++ })
		if reads != want {
			b.Fatalf("reads = %d, want the %d selected", reads, want)
		}
	}
}
