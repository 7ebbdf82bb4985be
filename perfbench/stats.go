package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p90 over 50 samples rests on 5 values and moves with any one of
// them, so the benchmark refuses to report it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (sorting
// them in place). It fails unless at least minBeyond samples lie beyond
// the rank, so p50 needs 20 samples and p90 needs 100.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, n-k, minBeyond)
	}
	sort.Float64s(samples)
	return samples[k-1], nil
}

// histSubBits sets the histogram resolution: 64 linear sub-buckets per
// power of two, so a reported value is within 1/128 of every sample in
// its bucket.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = histSub * (64 - histSubBits + 1)
)

// hist is a fixed-bucket log-linear histogram of non-negative
// durations. Recording a sample never allocates, so per-reading
// quantities (reading age, edge lag) cost the rig no garbage.
type hist struct {
	counts [histBuckets]uint64
	n      int
}

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return shift*histSub + int(v>>shift)
}

// histMid is the midpoint of bucket b.
func histMid(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	shift := b/histSub - 1
	lo := int64(b-shift*histSub) << shift
	return float64(lo) + float64(int64(1)<<shift-1)/2
}

func (h *hist) add(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds under the same
// minBeyond rule as percentile.
func (h *hist) quantile(q float64) (float64, error) {
	k := int(math.Ceil(q * float64(h.n)))
	if k < 1 {
		k = 1
	}
	if h.n-k < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, h.n, h.n-k, minBeyond)
	}
	seen := 0
	for b, c := range h.counts {
		seen += int(c)
		if seen >= k {
			return histMid(b), nil
		}
	}
	return 0, fmt.Errorf("histogram lost samples")
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (the default
// "exclusive" method), which is how the benchmark's spread is judged.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median is the middle quartile (0 for no samples).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, m, _ := quartiles(v)
	return m
}
