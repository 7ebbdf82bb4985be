package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/guard"
)

// numShards spreads registry contention; readings from N cycle loops hash
// by EPC so unrelated tags rarely share a lock.
const numShards = 16

// maxTransitions bounds the per-tag handoff trail retained.
const maxTransitions = 8

// Handoff records a tag's last-seen reader changing — the physical
// interpretation is the tag moving between antenna fields.
type Handoff struct {
	EPC  string    `json:"epc"`
	From string    `json:"from"`
	To   string    `json:"to"`
	At   time.Time `json:"at"`
}

// TagState is the merged, fleet-wide view of one tag.
type TagState struct {
	EPC     string `json:"epc"`
	Reader  string `json:"reader"`
	Antenna int    `json:"antenna"`
	// LastSeen is the wall-clock time of the most recent observation from
	// any reader; DeviceTime is that reader's virtual timestamp.
	LastSeen   time.Time     `json:"last_seen"`
	DeviceTime time.Duration `json:"device_time_ns"`
	Reads      uint64        `json:"reads"`
	// Mobile and IRR carry the owning reader's most recent cycle
	// assessment: the Phase I mobility verdict and the individual reading
	// rate over the retained history.
	Mobile bool    `json:"mobile"`
	IRR    float64 `json:"irr_hz"`
	// Readers counts lifetime reads per reader; Handoffs counts
	// reader-to-reader transitions, with the most recent trail kept.
	Readers     ReaderCounts `json:"readers"`
	Handoffs    uint64       `json:"handoffs"`
	Transitions []Handoff    `json:"transitions,omitempty"`
}

type tagEntry struct {
	code  epc.EPC
	state TagState
}

type regShard struct {
	mu   sync.RWMutex
	tags map[epc.EPC]*tagEntry
	// dirty and dropped accumulate changes since the last DrainDirty —
	// the incremental feed for the fleet's statestore journal.
	dirty   map[epc.EPC]bool
	dropped map[epc.EPC]bool
}

// Registry merges observations from every reader in the fleet into one
// view keyed by EPC. It is sharded for write concurrency: each cycle loop
// pushes readings as they arrive while the HTTP layer snapshots.
type Registry struct {
	shards [numShards]regShard

	// maxPerShard caps each shard (0 = unbounded): admitting a new tag to
	// a full shard evicts the shard's stalest tag with a journal
	// tombstone. quar, when set, gates admission of never-seen EPCs.
	maxPerShard int
	quar        *guard.Quarantine[epc.EPC]

	// onTag/onDrop, when set, are invoked under the owning shard's lock
	// after every mutation (full image) and removal (EPC). Holding the
	// lock across the call is deliberate: a consumer that later snapshots
	// the registry is guaranteed the snapshot already reflects any image
	// it has seen published, which is what lets the SSE layer anchor a
	// reset cursor without racing in-flight deltas. Callbacks must never
	// block (the bus's select-default publish qualifies).
	onTag  func(TagState)
	onDrop func(epcStr string)

	observations atomic.Uint64
	handoffs     atomic.Uint64
	evicted      atomic.Uint64
	quarantined  atomic.Uint64
}

// Notify registers change callbacks: onTag receives a full copied image
// after every merge/assessment, onDrop the EPC of every eviction or
// prune. Restore/Drop (recovery paths) are exempt — they reconstruct
// state that was already announced in a previous life. Call before the
// first Observe; not safe to change mid-flight.
func (g *Registry) Notify(onTag func(TagState), onDrop func(string)) {
	g.onTag = onTag
	g.onDrop = onDrop
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].tags = make(map[epc.EPC]*tagEntry)
		r.shards[i].dirty = make(map[epc.EPC]bool)
		r.shards[i].dropped = make(map[epc.EPC]bool)
	}
	return r
}

// Guard bounds the registry: maxTags caps the total population (rounded
// up to a per-shard cap; 0 = unbounded) and quar, when non-nil, holds
// never-seen EPCs on probation so ghost reads cannot allocate entries.
// Call before the first Observe; it is not safe to change mid-flight.
func (g *Registry) Guard(maxTags int, quar *guard.Quarantine[epc.EPC]) {
	if maxTags > 0 {
		g.maxPerShard = (maxTags + numShards - 1) / numShards
	} else {
		g.maxPerShard = 0
	}
	g.quar = quar
}

func (g *Registry) shard(code epc.EPC) *regShard {
	// FNV-1a over the raw EPC bytes.
	var h uint64 = 1469598103934665603
	for _, b := range code.Bytes() {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &g.shards[h%numShards]
}

// Observe merges one reading from a reader. It returns the handoff record
// and true when the tag's last-seen reader changed.
func (g *Registry) Observe(reader string, r core.Reading, at time.Time) (Handoff, bool) {
	sh := g.shard(r.EPC)
	var ho Handoff
	moved := false
	sh.mu.Lock()
	e, ok := sh.tags[r.EPC]
	if !ok {
		// A never-seen EPC must clear quarantine before it may allocate
		// anything: no entry, no dirty mark, no journal record. Ghost
		// reads die here. (The quarantine has its own lock but never
		// blocks, so holding the shard lock across it is safe.)
		if g.quar != nil && !g.quar.Observe(r.EPC, at) {
			sh.mu.Unlock()
			g.quarantined.Add(1)
			return Handoff{}, false
		}
		if g.maxPerShard > 0 && len(sh.tags) >= g.maxPerShard {
			g.evictStalestLocked(sh)
		}
		e = &tagEntry{code: r.EPC, state: TagState{EPC: r.EPC.String()}}
		sh.tags[r.EPC] = e
	} else if e.state.Reader != reader {
		moved = true
		ho = Handoff{EPC: e.state.EPC, From: e.state.Reader, To: reader, At: at}
		e.state.Handoffs++
		e.state.Transitions = append(e.state.Transitions, ho)
		if len(e.state.Transitions) > maxTransitions {
			e.state.Transitions = e.state.Transitions[len(e.state.Transitions)-maxTransitions:]
		}
	}
	st := &e.state
	st.Reader = reader
	st.Antenna = r.Antenna
	st.LastSeen = at
	st.DeviceTime = r.Time
	st.Reads++
	st.Readers.inc(reader)
	sh.dirty[r.EPC] = true
	if g.onTag != nil {
		g.onTag(copyState(st))
	}
	sh.mu.Unlock()

	g.observations.Add(1)
	if moved {
		g.handoffs.Add(1)
	}
	return ho, moved
}

// evictStalestLocked removes the shard's least-recently-seen tag to make
// room, recording a journal tombstone so the durable state shrinks with
// the in-memory state. Ties break on EPC order for determinism. The scan
// is O(shard); with the quarantine in front, floods rarely confirm, so
// evictions stay rare enough that linear is the right trade against
// keeping a per-shard heap coherent on every observation.
func (g *Registry) evictStalestLocked(sh *regShard) {
	var victim epc.EPC
	var victimEPC string
	var oldest time.Time
	found := false
	for code, e := range sh.tags {
		if !found || e.state.LastSeen.Before(oldest) ||
			(e.state.LastSeen.Equal(oldest) && e.state.EPC < victimEPC) {
			victim, victimEPC, oldest = code, e.state.EPC, e.state.LastSeen
			found = true
		}
	}
	if !found {
		return
	}
	delete(sh.tags, victim)
	delete(sh.dirty, victim)
	sh.dropped[victim] = true
	g.evicted.Add(1)
	if g.onDrop != nil {
		g.onDrop(victimEPC)
	}
}

// UpdateAssessment records a reader's per-cycle verdict for a tag: the
// mobility classification and the reading-rate estimate. Only the reader
// that currently owns the tag (saw it last) may overwrite the verdict, so
// a stale reader cannot clobber a fresher assessment.
func (g *Registry) UpdateAssessment(reader string, code epc.EPC, mobile bool, irr float64) {
	sh := g.shard(code)
	sh.mu.Lock()
	if e, ok := sh.tags[code]; ok && e.state.Reader == reader {
		e.state.Mobile = mobile
		e.state.IRR = irr
		sh.dirty[code] = true
		if g.onTag != nil {
			g.onTag(copyState(&e.state))
		}
	}
	sh.mu.Unlock()
}

// Get returns a copy of one tag's merged state.
func (g *Registry) Get(code epc.EPC) (TagState, bool) {
	sh := g.shard(code)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.tags[code]
	if !ok {
		return TagState{}, false
	}
	return copyState(&e.state), true
}

// Len reports how many tags the registry holds.
func (g *Registry) Len() int {
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		n += len(sh.tags)
		sh.mu.RUnlock()
	}
	return n
}

// Snapshot returns copies of every tag state, sorted by EPC for
// determinism.
func (g *Registry) Snapshot() []TagState {
	out := make([]TagState, 0, g.Len())
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		for _, e := range sh.tags {
			out = append(out, copyState(&e.state))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EPC < out[j].EPC })
	return out
}

// Prune drops tags not seen since the cutoff, returning how many were
// removed.
func (g *Registry) Prune(cutoff time.Time) int {
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for code, e := range sh.tags {
			if e.state.LastSeen.Before(cutoff) {
				epcStr := e.state.EPC
				delete(sh.tags, code)
				delete(sh.dirty, code)
				sh.dropped[code] = true
				n++
				if g.onDrop != nil {
					g.onDrop(epcStr)
				}
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// DrainDirty returns a copy of every tag state changed since the
// previous drain plus the tags dropped in that window, clearing both
// sets. States are full images (absolute, last-wins on replay) and both
// slices are sorted for deterministic journal bytes. A tag dropped and
// re-observed since the last drain appears in BOTH — the journal writer
// must put the drop before the state so replay lands on the fresh image.
func (g *Registry) DrainDirty() (states []TagState, dropped []string) {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for code := range sh.dirty {
			if e, ok := sh.tags[code]; ok {
				states = append(states, copyState(&e.state))
			}
		}
		for code := range sh.dropped {
			dropped = append(dropped, code.String())
		}
		if len(sh.dirty) > 0 {
			sh.dirty = make(map[epc.EPC]bool)
		}
		if len(sh.dropped) > 0 {
			sh.dropped = make(map[epc.EPC]bool)
		}
		sh.mu.Unlock()
	}
	sort.Slice(states, func(i, j int) bool { return states[i].EPC < states[j].EPC })
	sort.Strings(dropped)
	return states, dropped
}

// Restore installs one tag state (a recovered snapshot entry or journal
// record), replacing any existing entry for that EPC. Restored entries
// are not marked dirty — they are already durable. The state is
// validated before anything is touched.
func (g *Registry) Restore(st TagState) error {
	code, err := epc.Parse(st.EPC)
	if err != nil {
		return fmt.Errorf("fleet: restore tag %q: %w", st.EPC, err)
	}
	cp := copyState(&st)
	sh := g.shard(code)
	sh.mu.Lock()
	sh.tags[code] = &tagEntry{code: code, state: cp}
	sh.mu.Unlock()
	return nil
}

// Drop removes one tag (a recovered drop tombstone) without recording a
// new tombstone.
func (g *Registry) Drop(code epc.EPC) {
	sh := g.shard(code)
	sh.mu.Lock()
	delete(sh.tags, code)
	delete(sh.dirty, code)
	sh.mu.Unlock()
}

// Stats reports lifetime observation and handoff counts.
func (g *Registry) Stats() (observations, handoffs uint64) {
	return g.observations.Load(), g.handoffs.Load()
}

// GuardStats reports the overload counters: tags evicted by the capacity
// bound, observations refused while their EPC sat in quarantine, and the
// quarantine's own lifetime stats (zero when no quarantine is installed).
func (g *Registry) GuardStats() (evicted, quarantined uint64, qs guard.QuarantineStats) {
	if g.quar != nil {
		qs = g.quar.Stats()
	}
	return g.evicted.Load(), g.quarantined.Load(), qs
}

// copyState deep-copies the mutable slices so callers can hold the
// result without racing the registry. Readers is never nil in a copy,
// so it encodes as an object even before the first read.
func copyState(st *TagState) TagState {
	out := *st
	out.Readers = append(make(ReaderCounts, 0, len(st.Readers)), st.Readers...)
	out.Transitions = append([]Handoff(nil), st.Transitions...)
	return out
}
