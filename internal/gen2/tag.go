package gen2

import (
	"math/rand"

	"tagwatch/internal/epc"
)

// Tag is the link-layer state machine of one Gen2 tag: its memory, SL and
// per-session inventoried flags, and the inventory state it moves through
// during a round. Tag is not safe for concurrent use; the reader engine
// drives all tags from a single goroutine, as a real reader's medium
// access is inherently serial.
type Tag struct {
	Mem *epc.Memory

	sl    bool
	inv   [4]Flag
	state State

	session Session // session of the round the tag is participating in
	slot    uint32  // 15-bit slot counter per Gen2 (we keep headroom)
	rn16    uint16
}

// NewTag builds a tag around existing memory.
func NewTag(mem *epc.Memory) *Tag {
	return &Tag{Mem: mem}
}

// EPC is a convenience accessor for the tag's EPC code.
func (t *Tag) EPC() epc.EPC { return t.Mem.EPC() }

// SL reports the tag's SL flag.
func (t *Tag) SL() bool { return t.sl }

// Inventoried returns the inventoried flag for a session.
func (t *Tag) Inventoried(s Session) Flag { return t.inv[s&3] }

// SetInventoried forces a session flag; tests and the reader's
// round-boundary housekeeping use it.
func (t *Tag) SetInventoried(s Session, f Flag) { t.inv[s&3] = f }

// State returns the tag's current inventory state.
func (t *Tag) State() State { return t.state }

// Reset returns the tag to Ready without touching its flags — e.g. when it
// loses power as the reader hops channels.
func (t *Tag) Reset() { t.state = StateReady }

// ApplySelect applies a Select command to the tag's flags per the Gen2
// action table. Every tag in the field processes every Select, matching or
// not.
func (t *Tag) ApplySelect(cmd SelectCmd) {
	match := cmd.Matches(t.Mem)
	// Decode the action into the operation for this tag.
	type op uint8
	const (
		opNothing  op = iota
		opAssert      // assert SL / set inventoried → A
		opDeassert    // deassert SL / set inventoried → B
		opNegate      // toggle SL / A↔B
	)
	var o op
	switch cmd.Action {
	case ActionAssertDeassert:
		if match {
			o = opAssert
		} else {
			o = opDeassert
		}
	case ActionAssertNothing:
		if match {
			o = opAssert
		}
	case ActionNothingDeassert:
		if !match {
			o = opDeassert
		}
	case ActionNegateNothing:
		if match {
			o = opNegate
		}
	case ActionDeassertAssert:
		if match {
			o = opDeassert
		} else {
			o = opAssert
		}
	case ActionDeassertNothing:
		if match {
			o = opDeassert
		}
	case ActionNothingAssert:
		if !match {
			o = opAssert
		}
	case ActionNothingNegate:
		if !match {
			o = opNegate
		}
	}
	if o == opNothing {
		return
	}
	if cmd.Target == TargetSL {
		switch o {
		case opAssert:
			t.sl = true
		case opDeassert:
			t.sl = false
		case opNegate:
			t.sl = !t.sl
		}
		return
	}
	s := Session(cmd.Target) & 3
	switch o {
	case opAssert:
		t.inv[s] = FlagA
	case opDeassert:
		t.inv[s] = FlagB
	case opNegate:
		t.inv[s] = t.inv[s].Invert()
	}
}

// Joins reports whether HandleQuery(q) would make the tag join the round:
// whether its SL flag meets q's Sel and its inventoried flag for q's
// session equals q's Target, once an Acknowledged tag of that session has
// inverted it. It changes nothing.
func (t *Tag) Joins(q Query) bool {
	switch q.Sel {
	case SelSL:
		if !t.sl {
			return false
		}
	case SelNotSL:
		if t.sl {
			return false
		}
	}
	inv := t.inv[q.Session&3]
	if t.state == StateAcknowledged && q.Session == t.session {
		inv = inv.Invert()
	}
	return inv == q.Target
}

// Reply is what a tag backscatters in a slot.
type Reply struct {
	RN16 uint16
}

// HandleQuery processes a Query that begins a new inventory round. If the
// tag participates it draws a slot in [0, 2^Q); a zero draw makes it reply
// immediately, and ok reports whether it does. A tag that does not join
// ends in Ready and draws nothing.
//
// A tag in Acknowledged that sees a new Query for its session first inverts
// its inventoried flag (its previous singulation succeeded) and then
// re-evaluates participation, per the Gen2 state diagram.
func (t *Tag) HandleQuery(q Query, rng *rand.Rand) (rep Reply, ok bool) {
	joins := t.Joins(q)
	if t.state == StateAcknowledged && q.Session == t.session {
		t.inv[t.session&3] = t.inv[t.session&3].Invert()
	}
	t.state = StateReady
	if !joins {
		return Reply{}, false
	}
	t.session = q.Session
	t.slot = uint32(rng.Intn(1 << uint(q.Q&0x0F)))
	if t.slot == 0 {
		return t.reply(rng), true
	}
	t.state = StateArbitrate
	return Reply{}, false
}

// reply moves the tag to Reply with a fresh RN16.
func (t *Tag) reply(rng *rand.Rand) Reply {
	t.state = StateReply
	t.rn16 = uint16(rng.Intn(1 << 16))
	return Reply{RN16: t.rn16}
}

// HandleQueryRep processes a QueryRep for a session. Arbitrating tags
// decrement their slot counter and reply at zero. An Acknowledged tag
// inverts its inventoried flag and leaves the round. Tags in Reply that
// were never acknowledged return to Arbitrate with their counter exhausted
// (they effectively wait for the next round). A Ready tag ignores it.
func (t *Tag) HandleQueryRep(qr QueryRep, rng *rand.Rand) (rep Reply, ok bool) {
	if qr.Session != t.session {
		return Reply{}, false
	}
	switch t.state {
	case StateAcknowledged:
		t.inv[t.session&3] = t.inv[t.session&3].Invert()
		t.state = StateReady
	case StateReply:
		// Collided or unacknowledged: per Gen2 the tag returns to
		// Arbitrate; its counter is 0 so it would reply again at the next
		// QueryRep. Real tags back off by redrawing at the next
		// QueryAdjust/Query; to avoid livelock we model the standard
		// behaviour of waiting with an exhausted counter (0x7FFF wrap).
		t.state = StateArbitrate
		t.slot = 0x7FFF
	case StateArbitrate:
		t.slot--
		if t.slot == 0 {
			return t.reply(rng), true
		}
	}
	return Reply{}, false
}

// HandleQueryAdjust processes a QueryAdjust: participating (arbitrating)
// tags redraw their slot counters from the adjusted frame size. The reader
// engine passes the new Q since the tag tracks only its draw. An
// Acknowledged tag inverts its inventoried flag and leaves the round, as
// on a QueryRep; a Ready tag ignores it.
func (t *Tag) HandleQueryAdjust(qa QueryAdjust, newQ uint8, rng *rand.Rand) (rep Reply, ok bool) {
	if qa.Session != t.session {
		return Reply{}, false
	}
	switch t.state {
	case StateAcknowledged:
		t.inv[t.session&3] = t.inv[t.session&3].Invert()
		t.state = StateReady
	case StateArbitrate, StateReply:
		t.slot = uint32(rng.Intn(1 << uint(newQ&0x0F)))
		if t.slot == 0 {
			return t.reply(rng), true
		}
		t.state = StateArbitrate
	}
	return Reply{}, false
}

// EPCReply is a tag's answer to a valid ACK: its protocol-control word and
// EPC, protected by CRC-16.
type EPCReply struct {
	PC  uint16
	EPC epc.EPC
	CRC uint16
}

// HandleACK processes an ACK. A tag in Reply whose RN16 matches
// backscatters PC+EPC, as its memory decoded them at their last change,
// and moves to Acknowledged; ok reports whether it did. Anything else
// stays silent. An ACK with a wrong RN16 sends the tag back to Arbitrate.
func (t *Tag) HandleACK(a ACK) (er EPCReply, ok bool) {
	if t.state != StateReply {
		return EPCReply{}, false
	}
	if a.RN16 != t.rn16 {
		t.state = StateArbitrate
		t.slot = 0x7FFF
		return EPCReply{}, false
	}
	t.state = StateAcknowledged
	return EPCReply{PC: t.Mem.PC(), EPC: t.Mem.EPC(), CRC: t.Mem.CRC()}, true
}

// HandleNAK returns a replying or acknowledged tag to Arbitrate without
// inverting its inventoried flag.
func (t *Tag) HandleNAK() {
	switch t.state {
	case StateReply, StateAcknowledged:
		t.state = StateArbitrate
		t.slot = 0x7FFF
	}
}
