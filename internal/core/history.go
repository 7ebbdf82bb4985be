package core

import (
	"slices"
	"sync"
	"time"

	"tagwatch/internal/epc"
)

// History is the reading database the middleware maintains for upper
// applications: a bounded per-tag ring of recent reading times plus
// lifetime counters (the "history database" of Fig. 5). It keeps device
// timestamps, not whole readings: that is all the IRR estimate needs. It
// is safe for concurrent use: cycle loops write while serving layers
// read.
type History struct {
	mu    sync.RWMutex
	depth int
	tags  map[epc.EPC]*tagHistory
}

type tagHistory struct {
	// times is the ring of recent reading times: it grows to the depth,
	// then wraps, with start indexing the oldest entry.
	times    []time.Duration
	start    int
	total    uint64
	lastSeen time.Duration
}

// at returns the i-th oldest retained reading time.
func (th *tagHistory) at(i int) time.Duration {
	return th.times[(th.start+i)%len(th.times)]
}

// NewHistory builds a history retaining up to depth readings per tag.
func NewHistory(depth int) *History {
	if depth <= 0 {
		depth = 256
	}
	return &History{depth: depth, tags: make(map[epc.EPC]*tagHistory)}
}

// Add records one reading.
func (h *History) Add(r Reading) {
	h.mu.Lock()
	defer h.mu.Unlock()
	th, ok := h.tags[r.EPC]
	if !ok {
		th = &tagHistory{}
		h.tags[r.EPC] = th
	}
	if len(th.times) < h.depth {
		th.times = append(th.times, r.Time)
	} else {
		th.times[th.start] = r.Time
		th.start = (th.start + 1) % h.depth
	}
	th.total++
	if r.Time > th.lastSeen {
		th.lastSeen = r.Time
	}
}

// Recent returns the times of up to n most-recent readings of a tag,
// oldest first.
func (h *History) Recent(code epc.EPC, n int) []time.Duration {
	h.mu.RLock()
	defer h.mu.RUnlock()
	th, ok := h.tags[code]
	if !ok || n <= 0 {
		return nil
	}
	n = min(n, len(th.times))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = th.at(len(th.times) - n + i)
	}
	return out
}

// Total returns the lifetime reading count of a tag.
func (h *History) Total(code epc.EPC) uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if th, ok := h.tags[code]; ok {
		return th.total
	}
	return 0
}

// LastSeen returns the timestamp of a tag's most recent reading and
// whether the tag is known.
func (h *History) LastSeen(code epc.EPC) (time.Duration, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	th, ok := h.tags[code]
	if !ok {
		return 0, false
	}
	return th.lastSeen, true
}

// Tags returns all known tags in EPC byte order.
func (h *History) Tags() []epc.EPC {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]epc.EPC, 0, len(h.tags))
	for code := range h.tags {
		out = append(out, code)
	}
	slices.SortFunc(out, epc.Compare)
	return out
}

// IRR estimates a tag's individual reading rate in Hz over its retained
// history window.
func (h *History) IRR(code epc.EPC) float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	th, ok := h.tags[code]
	if !ok || len(th.times) < 2 {
		return 0
	}
	span := th.at(len(th.times)-1) - th.at(0)
	if span <= 0 {
		return 0
	}
	return float64(len(th.times)-1) / span.Seconds()
}

// Prune drops tags unseen since the cutoff, returning how many were
// removed.
func (h *History) Prune(cutoff time.Duration) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int
	for code, th := range h.tags {
		if th.lastSeen < cutoff {
			delete(h.tags, code)
			n++
		}
	}
	return n
}
