package core

import (
	"testing"
	"time"

	"tagwatch/internal/epc"
)

var (
	htagA = epc.MustParse("30f4ab12cd0045e100000001")
	htagB = epc.MustParse("30f4ab12cd0045e100000002")
)

func r(code epc.EPC, at time.Duration) Reading {
	return Reading{EPC: code, Time: at, PhaseRad: 1, RSSdBm: -60}
}

func TestHistoryAddAndRecent(t *testing.T) {
	h := NewHistory(4)
	for i := 0; i < 3; i++ {
		h.Add(r(htagA, time.Duration(i)*time.Second))
	}
	recent := h.Recent(htagA, 10)
	if len(recent) != 3 {
		t.Fatalf("recent = %d, want 3", len(recent))
	}
	for i := 1; i < len(recent); i++ {
		if recent[i] < recent[i-1] {
			t.Fatal("recent must be oldest-first")
		}
	}
	if h.Recent(htagB, 5) != nil {
		t.Fatal("unknown tag must return nil")
	}
	if h.Recent(htagA, 0) != nil {
		t.Fatal("n=0 must return nil")
	}
}

func TestHistoryRingWraps(t *testing.T) {
	h := NewHistory(4)
	for i := 0; i < 10; i++ {
		h.Add(r(htagA, time.Duration(i)*time.Second))
	}
	recent := h.Recent(htagA, 10)
	if len(recent) != 4 {
		t.Fatalf("depth-4 ring holds %d", len(recent))
	}
	if recent[0] != 6*time.Second || recent[3] != 9*time.Second {
		t.Fatalf("ring window wrong: %v .. %v", recent[0], recent[3])
	}
	if h.Total(htagA) != 10 {
		t.Fatalf("total = %d, want 10", h.Total(htagA))
	}
}

func TestHistoryLastSeenAndTags(t *testing.T) {
	h := NewHistory(8)
	h.Add(r(htagB, 2*time.Second))
	h.Add(r(htagA, 5*time.Second))
	if ts, ok := h.LastSeen(htagA); !ok || ts != 5*time.Second {
		t.Fatalf("LastSeen = %v %v", ts, ok)
	}
	if _, ok := h.LastSeen(epc.MustParse("ff")); ok {
		t.Fatal("unknown tag must report !ok")
	}
	tags := h.Tags()
	if len(tags) != 2 || tags[0] != htagA {
		t.Fatalf("Tags() = %v", tags)
	}
	if h.Total(epc.MustParse("ff")) != 0 {
		t.Fatal("unknown total must be 0")
	}
}

func TestHistoryIRR(t *testing.T) {
	h := NewHistory(16)
	// 11 readings over 1 s → 10 intervals → 10 Hz.
	for i := 0; i <= 10; i++ {
		h.Add(r(htagA, time.Duration(i)*100*time.Millisecond))
	}
	if irr := h.IRR(htagA); irr < 9.9 || irr > 10.1 {
		t.Fatalf("IRR = %v, want 10", irr)
	}
	if h.IRR(htagB) != 0 {
		t.Fatal("unknown tag IRR must be 0")
	}
	h.Add(r(htagB, time.Second))
	if h.IRR(htagB) != 0 {
		t.Fatal("single reading IRR must be 0")
	}
}

func TestHistoryPrune(t *testing.T) {
	h := NewHistory(8)
	h.Add(r(htagA, time.Second))
	h.Add(r(htagB, 10*time.Second))
	if n := h.Prune(5 * time.Second); n != 1 {
		t.Fatalf("pruned %d, want 1", n)
	}
	if _, ok := h.LastSeen(htagA); ok {
		t.Fatal("pruned tag must be gone")
	}
	if _, ok := h.LastSeen(htagB); !ok {
		t.Fatal("fresh tag must remain")
	}
}

func TestHistoryDefaultDepth(t *testing.T) {
	h := NewHistory(0)
	if h.depth != 256 {
		t.Fatalf("default depth = %d", h.depth)
	}
}

// BenchmarkHistoryAdd is the per-reading history write in steady state:
// a known tag whose ring is already full, so Add allocates nothing.
func BenchmarkHistoryAdd(b *testing.B) {
	h := NewHistory(256)
	rd := r(htagA, 0)
	for i := 0; i < 256; i++ {
		rd.Time = time.Duration(i) * time.Millisecond
		h.Add(rd)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Time += time.Millisecond
		h.Add(rd)
	}
}
