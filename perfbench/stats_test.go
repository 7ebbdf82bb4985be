package main

import (
	"math"
	"testing"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: percentile must sort
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0 = refused
	}{
		{99, 0.9, 0},
		{100, 0.9, 90},
		{19, 0.5, 0},
		{20, 0.5, 10},
		{1000, 0.9, 900},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want a refusal", tc.q*100, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.q*100, tc.n, got, err, tc.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 99; i++ {
		h.add(time.Duration(i) * time.Millisecond)
	}
	if _, err := h.quantile(0.9); err == nil {
		t.Error("p90 of 99 samples was reported")
	}
	h.add(100 * time.Millisecond)
	for _, q := range []float64{0.5, 0.9} {
		got, err := h.quantile(q)
		want := q * 100 * float64(time.Millisecond)
		if err != nil || math.Abs(got-want) > want/128 {
			t.Errorf("p%g = %g, %v; want %g within 1/128", q*100, got, err, want)
		}
	}
	// Small values are exact.
	var s hist
	for i := 0; i < 40; i++ {
		s.add(time.Duration(i % 4))
	}
	if got, err := s.quantile(0.5); err != nil || got != 1 {
		t.Errorf("p50 of small values = %g, %v; want 1", got, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(values, n=4).
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1.5, 2.25, 9, 4}, [3]float64{1.875, 4, 7}},
	} {
		q1, med, q3 := quartiles(tc.in)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestVerdictTally scores a tiny scene by hand: a turntable mover, a
// parked tag and a parcel that moves only between 1 s and 2 s.
func TestVerdictTally(t *testing.T) {
	codes := make([]epc.EPC, 3)
	for i := range codes {
		codes[i] = epc.New([]byte{0x30, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, byte(i)})
	}
	truth := map[epc.EPC]scene.Trajectory{
		codes[0]: scene.Circle{Center: rf.Pt(1, 1, 0), Radius: 0.2, Speed: 0.7},
		codes[1]: scene.Stationary{P: rf.Pt(1, 0, 0)},
		codes[2]: scene.Line{Start: rf.Pt(0, 1, 0), Dir: rf.Pt(1, 0, 0), Speed: 1, Depart: time.Second, Arrive: 2 * time.Second},
	}
	at := func(t time.Duration) func(epc.EPC) bool {
		return func(c epc.EPC) bool { return truth[c].Moving(t) }
	}
	var v verdicts
	// t=0: the mover is caught, the parked tag is a false alarm.
	v.addCycle(codes, []epc.EPC{codes[0], codes[1]}, at(0))
	// t=1.5 s: nothing flagged, so the mover and the parcel are missed.
	v.addCycle(codes, nil, at(1500*time.Millisecond))
	// t=1.5 s again, but the parcel is absent from Phase I: not scored.
	v.addCycle(codes[:2], []epc.EPC{codes[0]}, at(1500*time.Millisecond))
	if want := (verdicts{tp: 2, fp: 1, fn: 2}); v != want {
		t.Fatalf("tally = %+v, want %+v", v, want)
	}
	r := newRun(options{})
	v.report(r)
	if got := r.e2e["mover_recall"].Value; got != 0.5 {
		t.Errorf("recall = %g, want 0.5", got)
	}
	if got := r.e2e["mover_precision"].Value; got != 2.0/3 {
		t.Errorf("precision = %g, want 2/3", got)
	}
}
