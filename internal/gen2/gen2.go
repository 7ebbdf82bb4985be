// Package gen2 implements the tag-facing half of the EPCglobal Class-1
// Generation-2 (Gen2) UHF air protocol: the inventory commands a reader
// issues (Select, Query, QueryAdjust, QueryRep, ACK, NAK), the tag-side
// state machine that answers them, and the link-timing model that converts
// a sequence of commands and replies into elapsed air time.
//
// The package is the substrate under both the reader simulator and the
// paper's reading-rate model: every empty, collided and successful slot the
// paper's §2 analyses is produced by these state machines, and every
// selective-reading experiment of §5 drives the Select logic implemented
// here.
package gen2

import "fmt"

// Session is one of the four Gen2 inventory sessions. Each session has an
// independent inventoried flag per tag, so multiple readers (or logical
// reading phases) can inventory the same population independently.
type Session uint8

// The four Gen2 sessions.
const (
	S0 Session = iota
	S1
	S2
	S3
)

// String implements fmt.Stringer.
func (s Session) String() string { return fmt.Sprintf("S%d", uint8(s)) }

// Flag is the value of an inventoried flag: tags move between A and B as
// they are inventoried.
type Flag uint8

// Inventoried flag values.
const (
	FlagA Flag = iota
	FlagB
)

// String implements fmt.Stringer.
func (f Flag) String() string {
	if f == FlagA {
		return "A"
	}
	return "B"
}

// Invert returns the opposite flag.
func (f Flag) Invert() Flag { return f ^ 1 }

// State is a tag's inventory state.
type State uint8

// Tag inventory states: the part of the Gen2 state diagram inventory
// exercises. The paper reads tags by Select and inventory alone, so the
// access states beyond Acknowledged are not modelled.
const (
	StateReady State = iota
	StateArbitrate
	StateReply
	StateAcknowledged
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateReady:
		return "Ready"
	case StateArbitrate:
		return "Arbitrate"
	case StateReply:
		return "Reply"
	case StateAcknowledged:
		return "Acknowledged"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Sel is the Query command's Sel field: which tags (by SL flag) participate
// in the round.
type Sel uint8

// Sel field values.
const (
	SelAll   Sel = 0 // all tags regardless of SL
	SelNotSL Sel = 2 // only tags with SL deasserted
	SelSL    Sel = 3 // only tags with SL asserted
)

// Target is the Select command's Target field: which flag the command acts
// on — the SL flag, or the inventoried flag of one session.
type Target uint8

// Select targets.
const (
	TargetS0 Target = iota // inventoried flag of S0
	TargetS1
	TargetS2
	TargetS3
	TargetSL // the SL flag
)

// String implements fmt.Stringer.
func (t Target) String() string {
	if t == TargetSL {
		return "SL"
	}
	return fmt.Sprintf("S%d-flag", uint8(t))
}

// Action is the Select command's 3-bit Action field. Each action specifies
// what happens to matching and non-matching tags (assert/deassert SL, or
// set the targeted inventoried flag to A/B, or do nothing).
type Action uint8

// The eight Select actions, named match/non-match:
//
//	ActionAssertDeassert  matching: assert SL or inv→A; else: deassert SL or inv→B
//	ActionAssertNothing   matching: assert SL or inv→A; else: nothing
//	ActionNothingDeassert matching: nothing;            else: deassert SL or inv→B
//	ActionNegateNothing   matching: negate SL or A↔B;   else: nothing
//	ActionDeassertAssert  matching: deassert SL or inv→B; else: assert SL or inv→A
//	ActionDeassertNothing matching: deassert SL or inv→B; else: nothing
//	ActionNothingAssert   matching: nothing;            else: assert SL or inv→A
//	ActionNothingNegate   matching: nothing;            else: negate SL or A↔B
const (
	ActionAssertDeassert Action = iota
	ActionAssertNothing
	ActionNothingDeassert
	ActionNegateNothing
	ActionDeassertAssert
	ActionDeassertNothing
	ActionNothingAssert
	ActionNothingNegate
)

// QueryTarget is the Query command's Target field: which inventoried-flag
// value participates.
type QueryTarget = Flag

// Query starts an inventory round: tags satisfying (Sel, Session, Target)
// load a random slot counter in [0, 2^Q).
type Query struct {
	Sel     Sel
	Session Session
	Target  QueryTarget // tags whose inventoried flag equals this participate
	Q       uint8       // frame length 2^Q slots; 0..15
}

// QueryAdjust adjusts Q mid-round; participating tags redraw their slots.
// UpDn is +1, 0 or -1.
type QueryAdjust struct {
	Session Session
	UpDn    int8
}

// QueryRep opens the next slot of the round: arbitrating tags decrement
// their slot counters.
type QueryRep struct {
	Session Session
}

// ACK acknowledges the RN16 backscattered in a singleton slot; the tag
// answers with its PC+EPC.
type ACK struct {
	RN16 uint16
}

// NAK returns replying tags to Arbitrate without touching their flags.
type NAK struct{}
