package fleet

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tagwatch/internal/promtext"
)

// EventType labels the kinds of events the fleet publishes.
type EventType string

const (
	// EventReaderState marks a supervisor state transition
	// (connecting/up/backoff/down).
	EventReaderState EventType = "reader_state"
	// EventCycle summarises one completed Tagwatch cycle on a reader.
	EventCycle EventType = "cycle"
	// EventHandoff marks a tag whose last-seen reader changed.
	EventHandoff EventType = "handoff"
	// EventStateStore reports a registry persistence failure (journal
	// flush, snapshot, or close); the fleet keeps serving from memory,
	// degraded to non-durable.
	EventStateStore EventType = "statestore"
	// EventPanic reports a contained panic: State is "contained" when the
	// component will be restarted under its budget, "tripped" when the
	// budget is spent and the component is dead for good.
	EventPanic EventType = "panic"
	// EventTag carries a full image of one tag's merged state, published
	// on every registry mutation (observation, assessment refresh).
	// Because images are absolute, applying them in sequence order — or
	// re-applying one already reflected in a snapshot — converges a
	// mirror to exactly the registry's state; this is the delta stream
	// the edge tier consumes.
	EventTag EventType = "tag"
	// EventTagDrop reports a tag removed from the registry (capacity
	// eviction or prune). Mirrors delete the EPC.
	EventTagDrop EventType = "tag_drop"
	// EventGap is synthetic, per-subscriber, and never enters the ring:
	// it tells ONE shed subscriber exactly which sequence range
	// [GapFrom, GapTo] it lost to a full buffer, instead of dropping
	// silently. Its Seq is GapTo, so a cursor that applies the gap lands
	// just past the hole. A consumer that cares about completeness
	// reconnects with its last contiguous cursor: the ring usually still
	// covers the hole (the subscriber's buffer overflowed, not the
	// ring), so the replay heals it; otherwise the server resets.
	EventGap EventType = "gap"
	// EventReset is the SSE-layer full-state anchor: a registry snapshot
	// plus the cursor it corresponds to (see ResetPayload). It is
	// synthesised per-connection by the streamer — never published on
	// the bus — when a client has no cursor, presents one from another
	// primary identity, or has fallen off the ring.
	EventReset EventType = "reset"
)

// Event is one fleet occurrence, shaped for direct JSON/SSE serialisation.
type Event struct {
	Type   EventType `json:"type"`
	Reader string    `json:"reader,omitempty"`
	At     time.Time `json:"at"`

	// Seq is the bus's monotonically increasing sequence number, stamped
	// by Publish. It is the SSE cursor: deliveries to one subscriber are
	// strictly increasing in Seq, and any hole is announced by a gap
	// event covering it.
	Seq uint64 `json:"seq,omitempty"`

	// reader_state fields.
	State   string `json:"state,omitempty"`
	Error   string `json:"error,omitempty"`
	Attempt int    `json:"attempt,omitempty"`

	// handoff fields.
	EPC  string `json:"epc,omitempty"`
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`

	// cycle payload.
	Cycle *CycleSummary `json:"cycle,omitempty"`

	// tag payload: the full merged image after the mutation. tag_drop
	// reuses EPC above.
	Tag *TagState `json:"tag,omitempty"`

	// gap payload: the inclusive sequence range this subscriber lost.
	GapFrom uint64 `json:"gap_from,omitempty"`
	GapTo   uint64 `json:"gap_to,omitempty"`
}

// CycleSummary is the per-cycle digest published on the bus.
type CycleSummary struct {
	Present       int   `json:"present"`
	Mobile        int   `json:"mobile"`
	Targets       int   `json:"targets"`
	Masks         int   `json:"masks"`
	FellBack      bool  `json:"fell_back"`
	PhaseIReads   int   `json:"phase1_reads"`
	PhaseIIReads  int   `json:"phase2_reads"`
	ScheduleCostU int64 `json:"schedule_cost_us"`
	// Err is set when the cycle's transport failed: its counts above are
	// partial (possibly zero) evidence, not an empty RF field.
	Err string `json:"err,omitempty"`
}

// DefaultRingCap is the journal depth a bus retains when the owner does
// not configure one: enough to ride out a reconnect plus a burst, small
// enough that a bus costs a few MiB at worst.
const DefaultRingCap = 4096

// Bus fans events out to subscribers over per-subscriber buffered
// channels. Publish never blocks: a subscriber whose buffer is full
// loses events, but never silently — the first delivery that fits again
// is preceded by a synthetic gap event naming the exact missed range.
//
// Every published event is stamped with a monotonically increasing
// sequence number and retained in a fixed-cap ring journal, so a
// consumer that lost events (shed buffer, dropped connection) can
// replay the hole from ReplayFrom as long as its cursor is still
// covered. The bus identity distinguishes sequence spaces across
// process restarts and failovers: a cursor minted against one identity
// is meaningless against another, and the SSE layer answers it with a
// reset instead of resuming into the wrong stream.
type Bus struct {
	mu     sync.Mutex
	nextID int
	subs   map[int]*Subscriber
	// limit bounds TrySubscribe admissions; zero means unbounded.
	// Internal subscribers (checkpointing, tests) use Subscribe, which
	// ignores the limit — the bound exists for untrusted SSE clients.
	limit int

	// identity names this bus's sequence space (fresh per process).
	identity string
	// lastSeq is the newest stamped sequence number. ring is a circular
	// journal of the most recent events: the oldest retained event (seq
	// lastSeq-len(ring)+1) lives at ring[ringStart], ascending modulo
	// len(ring).
	lastSeq   uint64
	ring      []Event
	ringStart int
	ringCap   int

	published atomic.Uint64
	dropped   atomic.Uint64
	gaps      atomic.Uint64
	rejected  atomic.Uint64
}

// Subscriber is one registered event consumer.
type Subscriber struct {
	bus     *Bus
	id      int
	ch      chan Event
	dropped atomic.Uint64
	gapsOut atomic.Uint64
	closed  bool

	// gapFrom/gapTo (written under bus.mu) accumulate the range lost
	// since the last successful delivery; zero gapFrom means no pending
	// gap. gapFrom is atomic so FlushGap can skip the lock when no gap
	// is pending.
	gapFrom atomic.Uint64
	gapTo   uint64
}

// NewBus builds an empty event bus with a fresh identity and the
// default ring depth.
func NewBus() *Bus {
	var b [8]byte
	identity := "bus"
	if _, err := rand.Read(b[:]); err == nil {
		identity = hex.EncodeToString(b[:])
	}
	return &Bus{
		subs:     make(map[int]*Subscriber),
		identity: identity,
		ringCap:  DefaultRingCap,
	}
}

// Identity names this bus's sequence space. Cursors embed it; a cursor
// minted against a different identity (an earlier process, a demoted
// primary) must be answered with a reset, never a resume.
func (b *Bus) Identity() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.identity
}

// setIdentity overrides the identity (tests impersonating an old
// primary). Not for production use.
func (b *Bus) setIdentity(id string) {
	b.mu.Lock()
	b.identity = id
	b.mu.Unlock()
}

// SetRingCap resizes the replay ring (minimum 1). Call before serving;
// resizing discards retained events.
func (b *Bus) SetRingCap(n int) {
	if n < 1 {
		n = 1
	}
	b.mu.Lock()
	b.ringCap = n
	b.ring = nil
	b.ringStart = 0
	b.mu.Unlock()
}

// SetSubscriberLimit caps how many subscribers TrySubscribe will admit
// (zero = unbounded). Call before serving; not safe to change mid-flight
// semantics aside, it only gates future TrySubscribe calls.
func (b *Bus) SetSubscriberLimit(n int) {
	b.mu.Lock()
	b.limit = n
	b.mu.Unlock()
}

// Subscribe registers a consumer with the given channel buffer (minimum 1).
func (b *Bus) Subscribe(buffer int) *Subscriber {
	if buffer < 1 {
		buffer = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	s := &Subscriber{bus: b, id: b.nextID, ch: make(chan Event, buffer)}
	b.subs[s.id] = s
	return s
}

// TrySubscribe registers a consumer unless the subscriber limit is
// reached, in which case it returns (nil, false) and counts the
// rejection. This is the entry point for untrusted clients (SSE).
func (b *Bus) TrySubscribe(buffer int) (*Subscriber, bool) {
	if buffer < 1 {
		buffer = 1
	}
	b.mu.Lock()
	if b.limit > 0 && len(b.subs) >= b.limit {
		b.mu.Unlock()
		b.rejected.Add(1)
		return nil, false
	}
	b.nextID++
	s := &Subscriber{bus: b, id: b.nextID, ch: make(chan Event, buffer)}
	b.subs[s.id] = s
	b.mu.Unlock()
	return s, true
}

// Publish stamps the event with the next sequence number, journals it
// in the ring, and delivers it to every subscriber without blocking. A
// subscriber whose buffer is full starts (or extends) a pending gap;
// the next delivery that fits is preceded by a synthetic gap event
// carrying the exact missed range, so loss is always announced.
func (b *Bus) Publish(ev Event) {
	b.published.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastSeq++
	ev.Seq = b.lastSeq
	if b.ringCap > 0 {
		if len(b.ring) < b.ringCap {
			b.ring = append(b.ring, ev)
		} else {
			b.ring[b.ringStart] = ev
			b.ringStart = (b.ringStart + 1) % len(b.ring)
		}
	}
	for _, s := range b.subs {
		if from := s.gapFrom.Load(); from != 0 {
			gap := Event{
				Type: EventGap, At: ev.At,
				Seq: s.gapTo, GapFrom: from, GapTo: s.gapTo,
			}
			select {
			case s.ch <- gap:
				s.gapFrom.Store(0)
				s.gapTo = 0
				s.gapsOut.Add(1)
				b.gaps.Add(1)
			default:
				// Still wedged: this event joins the hole.
				s.gapTo = ev.Seq
				s.dropped.Add(1)
				b.dropped.Add(1)
				continue
			}
		}
		select {
		case s.ch <- ev:
		default:
			s.gapFrom.Store(ev.Seq)
			s.gapTo = ev.Seq
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
}

// LastSeq reports the newest stamped sequence number (0 before any
// publish).
func (b *Bus) LastSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastSeq
}

// ReplayFrom copies every retained event with Seq > after, in sequence
// order. ok is false when the cursor has fallen off the ring — some
// event in (after, lastSeq] is no longer retained — in which case the
// caller must re-anchor (reset) instead of pretending the stream is
// contiguous. after >= lastSeq returns (nil, true): nothing to replay.
func (b *Bus) ReplayFrom(after uint64) (evs []Event, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if after >= b.lastSeq {
		return nil, true
	}
	if len(b.ring) == 0 {
		return nil, false
	}
	oldest := b.lastSeq - uint64(len(b.ring)) + 1
	if after+1 < oldest {
		return nil, false
	}
	evs = make([]Event, 0, b.lastSeq-after)
	for seq := after + 1; seq <= b.lastSeq; seq++ {
		idx := (b.ringStart + int(seq-oldest)) % len(b.ring)
		evs = append(evs, b.ring[idx])
	}
	return evs, true
}

// Stats reports lifetime publish/drop counts and the live subscriber count.
func (b *Bus) Stats() (published, dropped uint64, subscribers int) {
	b.mu.Lock()
	n := len(b.subs)
	b.mu.Unlock()
	return b.published.Load(), b.dropped.Load(), n
}

// SubscriberDrops is one live subscriber's loss accounting for /metrics.
type SubscriberDrops struct {
	ID      int
	Dropped uint64
	Gaps    uint64
}

// EventsStatus is the delivery layer's observability block: how lossy
// this deployment is, measured instead of inferred.
type EventsStatus struct {
	// Identity names the bus's sequence space (cursors embed it).
	Identity string `json:"identity"`
	// LastSeq is the newest published sequence; OldestRetained is the
	// ring's replay floor — a cursor at or past OldestRetained-1 resumes,
	// anything older resets.
	LastSeq        uint64 `json:"last_seq"`
	OldestRetained uint64 `json:"oldest_retained"`
	// Published/Dropped/Gaps/Rejected are lifetime bus totals; Gaps
	// counts synthetic gap frames delivered (announced loss intervals).
	Published   uint64 `json:"published"`
	Dropped     uint64 `json:"dropped"`
	Gaps        uint64 `json:"gaps"`
	Rejected    uint64 `json:"rejected"`
	Subscribers int    `json:"subscribers"`
	// PerSubscriber breaks drops and gaps down by live subscriber.
	PerSubscriber []SubscriberDrops `json:"per_subscriber,omitempty"`
}

// Status snapshots the bus's loss accounting in one pass under the bus
// lock: the events block of /api/status and the bus families of
// /metrics, on the fleet and the edge alike. PerSubscriber is sorted by
// subscriber ID.
func (b *Bus) Status() EventsStatus {
	b.mu.Lock()
	st := EventsStatus{
		Identity:    b.identity,
		LastSeq:     b.lastSeq,
		Published:   b.published.Load(),
		Dropped:     b.dropped.Load(),
		Gaps:        b.gaps.Load(),
		Rejected:    b.rejected.Load(),
		Subscribers: len(b.subs),
	}
	if b.lastSeq > 0 && len(b.ring) > 0 {
		st.OldestRetained = b.lastSeq - uint64(len(b.ring)) + 1
	}
	for _, s := range b.subs {
		st.PerSubscriber = append(st.PerSubscriber, SubscriberDrops{ID: s.id, Dropped: s.dropped.Load(), Gaps: s.gapsOut.Load()})
	}
	b.mu.Unlock()
	sort.Slice(st.PerSubscriber, func(i, j int) bool { return st.PerSubscriber[i].ID < st.PerSubscriber[j].ID })
	return st
}

// WriteMetrics writes the bus families under prefix
// (tagwatch_fleet_bus, tagwatch_edge_bus).
func (s EventsStatus) WriteMetrics(p *promtext.Page, prefix string) {
	p.Counter(prefix+"_events_total", "Events published on the bus.").Uint(s.Published)
	p.Counter(prefix+"_dropped_total", "Events dropped across all slow subscribers.").Uint(s.Dropped)
	p.Counter(prefix+"_rejected_total", "Subscriptions refused by the subscriber limit.").Uint(s.Rejected)
	p.Gauge(prefix+"_subscribers", "Live bus subscribers.").Int(int64(s.Subscribers))
	p.Counter(prefix+"_gaps_total", "Synthetic gap events delivered across all subscribers (announced loss intervals).").Uint(s.Gaps)
	p.Gauge(prefix+"_last_seq", "Newest published bus sequence number.").Uint(s.LastSeq)
	p.Gauge(prefix+"_ring_oldest_seq", "Oldest sequence still replayable from the ring (the resume floor).").Uint(s.OldestRetained)
	window := uint64(0)
	if s.OldestRetained > 0 {
		window = s.LastSeq - s.OldestRetained + 1
	}
	p.Gauge(prefix+"_ring_window", "Events currently retained for replay.").Uint(window)
	dropped := p.Counter(prefix+"_subscriber_dropped_total", "Events dropped per live subscriber.")
	for _, sd := range s.PerSubscriber {
		dropped.Uint(sd.Dropped, "subscriber", strconv.Itoa(sd.ID))
	}
	gaps := p.Counter(prefix+"_subscriber_gaps_total", "Gap events delivered per live subscriber.")
	for _, sd := range s.PerSubscriber {
		gaps.Uint(sd.Gaps, "subscriber", strconv.Itoa(sd.ID))
	}
}

// C returns the subscriber's event channel. It is closed by Close.
func (s *Subscriber) C() <-chan Event { return s.ch }

// Dropped reports how many events this subscriber has lost to a full
// buffer.
func (s *Subscriber) Dropped() uint64 { return s.dropped.Load() }

// Gaps reports how many gap events have been delivered to this
// subscriber — every one a loss interval it was told about.
func (s *Subscriber) Gaps() uint64 { return s.gapsOut.Load() }

// FlushGap delivers this subscriber's pending gap announcement now, if
// there is one and the buffer has room. Publish flushes pending gaps
// before the next delivery, but when the hole sits at the very tail of
// a burst there IS no next delivery — without a flush the loss would
// stay unannounced until the next event, which may be arbitrarily far
// away. Streamers call this whenever they empty the subscriber's
// queue, so the loss is announced right after the events before it.
// Ordering stays correct: every event already buffered precedes the
// hole, and any concurrent Publish serialises behind bus.mu. With no
// gap pending it returns without taking bus.mu; a Publish still inside
// its drop may be missed that way, so streamers also call this on
// heartbeat ticks.
func (s *Subscriber) FlushGap() bool {
	if s.gapFrom.Load() == 0 {
		return false
	}
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	from := s.gapFrom.Load()
	if s.closed || from == 0 {
		return false
	}
	gap := Event{
		Type: EventGap, At: time.Now(),
		Seq: s.gapTo, GapFrom: from, GapTo: s.gapTo,
	}
	select {
	case s.ch <- gap:
		s.gapFrom.Store(0)
		s.gapTo = 0
		s.gapsOut.Add(1)
		b.gaps.Add(1)
		return true
	default:
		return false
	}
}

// Close unregisters the subscriber and closes its channel. Safe to call
// once per subscriber; pending buffered events are still readable.
func (s *Subscriber) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(s.bus.subs, s.id)
	close(s.ch)
}
