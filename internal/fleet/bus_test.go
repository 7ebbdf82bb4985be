package fleet

import (
	"testing"
	"time"
)

func TestBusFanOut(t *testing.T) {
	b := NewBus()
	a := b.Subscribe(8)
	c := b.Subscribe(8)
	defer a.Close()
	defer c.Close()

	for i := 0; i < 3; i++ {
		b.Publish(Event{Type: EventCycle, Reader: "r0", At: time.Unix(int64(i), 0)})
	}
	for _, sub := range []*Subscriber{a, c} {
		for i := 0; i < 3; i++ {
			select {
			case ev := <-sub.C():
				if ev.Reader != "r0" {
					t.Fatalf("event %d: %+v", i, ev)
				}
			default:
				t.Fatalf("subscriber missing event %d", i)
			}
		}
	}
	if pub, drop, n := statsOf(b); pub != 3 || drop != 0 || n != 2 {
		t.Fatalf("stats: published=%d dropped=%d subs=%d", pub, drop, n)
	}
}

func statsOf(b *Bus) (uint64, uint64, int) { return b.Stats() }

func TestBusSlowSubscriberDropsWithoutBlocking(t *testing.T) {
	b := NewBus()
	slow := b.Subscribe(1)
	fast := b.Subscribe(16)
	defer slow.Close()
	defer fast.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			b.Publish(Event{Type: EventHandoff})
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}

	if got := slow.Dropped(); got != 9 {
		t.Fatalf("slow subscriber dropped %d events, want 9", got)
	}
	if fast.Dropped() != 0 {
		t.Fatalf("fast subscriber dropped %d events, want 0", fast.Dropped())
	}
	if n := len(fast.C()); n != 10 {
		t.Fatalf("fast subscriber buffered %d events, want 10", n)
	}
	if _, dropped, _ := b.Stats(); dropped != 9 {
		t.Fatalf("bus-wide drop counter %d, want 9", dropped)
	}
}

// TestBusSequencesAndJournal: every publish stamps a strictly
// increasing Seq, the ring retains the newest events, and ReplayFrom
// reports honestly whether a cursor is still covered.
func TestBusSequencesAndJournal(t *testing.T) {
	b := NewBus()
	b.SetRingCap(4)
	if st := b.Status(); st.OldestRetained != 0 || st.LastSeq != 0 {
		t.Fatalf("empty coverage = (%d,%d), want (0,0)", st.OldestRetained, st.LastSeq)
	}
	for i := 1; i <= 10; i++ {
		b.Publish(Event{Type: EventCycle, At: time.Unix(int64(i), 0)})
	}
	if got := b.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
	if st := b.Status(); st.OldestRetained != 7 || st.LastSeq != 10 {
		t.Fatalf("coverage = (%d,%d), want (7,10)", st.OldestRetained, st.LastSeq)
	}

	evs, ok := b.ReplayFrom(6)
	if !ok || len(evs) != 4 {
		t.Fatalf("ReplayFrom(6): ok=%v len=%d, want covered with 4 events", ok, len(evs))
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("replayed[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if _, ok := b.ReplayFrom(5); ok {
		t.Fatal("ReplayFrom(5) claimed coverage for a seq the ring no longer holds")
	}
	if evs, ok := b.ReplayFrom(10); !ok || evs != nil {
		t.Fatalf("ReplayFrom(10) = (%v, %v), want up-to-date (nil, true)", evs, ok)
	}
	if evs, ok := b.ReplayFrom(99); !ok || evs != nil {
		t.Fatalf("ReplayFrom(future) = (%v, %v), want (nil, true)", evs, ok)
	}
}

// TestBusGapCarriesExactRange: shedding a slow subscriber must produce
// a synthetic gap event naming exactly the missed [from, to] range as
// soon as the buffer has room again — loss is announced, never silent.
func TestBusGapCarriesExactRange(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(4)
	defer sub.Close()

	for i := 1; i <= 4; i++ { // seqs 1..4 fill the buffer
		b.Publish(Event{Type: EventCycle})
	}
	for i := 5; i <= 7; i++ { // seqs 5..7 shed: the hole
		b.Publish(Event{Type: EventCycle})
	}
	// Drain room, then the next publish must deliver gap(5,7) first.
	<-sub.C()
	<-sub.C()
	b.Publish(Event{Type: EventCycle}) // seq 8

	want := []struct {
		typ  EventType
		seq  uint64
		from uint64
		to   uint64
	}{
		{EventCycle, 3, 0, 0},
		{EventCycle, 4, 0, 0},
		{EventGap, 7, 5, 7},
		{EventCycle, 8, 0, 0},
	}
	for i, w := range want {
		select {
		case ev := <-sub.C():
			if ev.Type != w.typ || ev.Seq != w.seq || ev.GapFrom != w.from || ev.GapTo != w.to {
				t.Fatalf("event %d = {%s seq=%d gap=%d-%d}, want {%s seq=%d gap=%d-%d}",
					i, ev.Type, ev.Seq, ev.GapFrom, ev.GapTo, w.typ, w.seq, w.from, w.to)
			}
		default:
			t.Fatalf("missing event %d (%s seq=%d)", i, w.typ, w.seq)
		}
	}
	if sub.Gaps() != 1 || b.Status().Gaps != 1 {
		t.Fatalf("gap counters: sub=%d bus=%d, want 1/1", sub.Gaps(), b.Status().Gaps)
	}
	if sub.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", sub.Dropped())
	}
}

// TestBusGapExtendsWhileWedged: a subscriber that stays wedged keeps
// extending ONE pending gap instead of stacking many, and an event that
// cannot fit even behind its gap frame opens a fresh hole — announced
// on the next delivery, so no loss interval is ever swallowed.
func TestBusGapExtendsWhileWedged(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(1)
	defer sub.Close()

	b.Publish(Event{Type: EventCycle}) // seq 1 fills the buffer
	for i := 2; i <= 9; i++ {          // seqs 2..9 all shed into one hole
		b.Publish(Event{Type: EventCycle})
	}
	<-sub.C()                          // drain seq 1
	b.Publish(Event{Type: EventCycle}) // seq 10: gap(2,9) delivered, ev 10 re-shed

	ev := <-sub.C()
	if ev.Type != EventGap || ev.GapFrom != 2 || ev.GapTo != 9 || ev.Seq != 9 {
		t.Fatalf("gap = %+v, want gap 2-9 at seq 9", ev)
	}
	// Event 10 could not fit behind the gap frame (buffer of 1), so it
	// must have opened a fresh pending hole, announced on the next
	// publish once there is room.
	b.Publish(Event{Type: EventCycle}) // seq 11: gap(10,10) delivered, ev 11 re-shed
	ev = <-sub.C()
	if ev.Type != EventGap || ev.GapFrom != 10 || ev.GapTo != 10 || ev.Seq != 10 {
		t.Fatalf("second gap = %+v, want gap 10-10", ev)
	}
	if sub.Gaps() != 2 {
		t.Fatalf("gap frames delivered = %d, want 2", sub.Gaps())
	}
}

// TestBusFlushGapAnnouncesTailLoss: when the hole sits at the very end
// of a burst there is no later publish to carry the gap announcement —
// FlushGap (called by streamers when a send leaves the subscriber's
// queue empty, and on heartbeat ticks) must surface it.
func TestBusFlushGapAnnouncesTailLoss(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(2)
	defer sub.Close()

	for i := 1; i <= 5; i++ { // seqs 1-2 buffered, 3-5 shed: tail hole
		b.Publish(Event{Type: EventCycle})
	}
	if sub.FlushGap() {
		t.Fatal("FlushGap succeeded with a full buffer; the gap would arrive out of order")
	}
	<-sub.C() // drain seq 1
	if !sub.FlushGap() {
		t.Fatal("FlushGap failed with buffer room and a pending hole")
	}
	<-sub.C() // seq 2
	ev := <-sub.C()
	if ev.Type != EventGap || ev.GapFrom != 3 || ev.GapTo != 5 || ev.Seq != 5 {
		t.Fatalf("flushed gap = %+v, want gap 3-5 at seq 5", ev)
	}
	if sub.FlushGap() {
		t.Fatal("FlushGap re-announced an already-flushed gap")
	}
	if sub.Gaps() != 1 || b.Status().Gaps != 1 {
		t.Fatalf("gap counters: sub=%d bus=%d, want 1/1", sub.Gaps(), b.Status().Gaps)
	}
}

func TestBusCloseIsIdempotentAndPublishSafe(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(1)
	s.Close()
	s.Close() // second close must not panic
	b.Publish(Event{Type: EventCycle})
	if _, ok := <-s.C(); ok {
		t.Fatal("closed subscriber channel still delivering")
	}
	if _, _, n := b.Stats(); n != 0 {
		t.Fatalf("subscriber count %d after close, want 0", n)
	}
}
