package gen2

import (
	"math/rand"
	"testing"

	"tagwatch/internal/epc"
)

func newTag(code string) *Tag {
	return NewTag(epc.NewMemory(epc.MustParse(code)))
}

// replied reports whether a Handle call made the tag reply.
func replied(_ Reply, ok bool) bool { return ok }

func TestSelectActionTableSL(t *testing.T) {
	mask := epc.New([]byte{0x30}) // matches tags whose EPC starts 0x30
	sel := func(a Action) SelectCmd {
		return SelectCmd{Target: TargetSL, Action: a, MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset, Mask: mask}
	}
	match := func() *Tag { return newTag("30f4ab12cd0045e100000001") }
	nomatch := func() *Tag { return newTag("e0f4ab12cd0045e100000001") }

	cases := []struct {
		action              Action
		wantMatch, wantMiss bool // SL after command, starting from false
	}{
		{ActionAssertDeassert, true, false},
		{ActionAssertNothing, true, false},
		{ActionNothingDeassert, false, false},
		{ActionNegateNothing, true, false},
		{ActionDeassertAssert, false, true},
		{ActionDeassertNothing, false, false},
		{ActionNothingAssert, false, true},
		{ActionNothingNegate, false, true},
	}
	for _, c := range cases {
		m, n := match(), nomatch()
		m.ApplySelect(sel(c.action))
		n.ApplySelect(sel(c.action))
		if m.SL() != c.wantMatch {
			t.Errorf("action %d: matching tag SL = %v, want %v", c.action, m.SL(), c.wantMatch)
		}
		if n.SL() != c.wantMiss {
			t.Errorf("action %d: non-matching tag SL = %v, want %v", c.action, n.SL(), c.wantMiss)
		}
	}
}

func TestSelectNegateTogglesSL(t *testing.T) {
	tag := newTag("30f4ab12cd0045e100000001")
	cmd := SelectCmd{Target: TargetSL, Action: ActionNegateNothing, MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset, Mask: epc.New([]byte{0x30})}
	tag.ApplySelect(cmd)
	if !tag.SL() {
		t.Fatal("first negate must assert")
	}
	tag.ApplySelect(cmd)
	if tag.SL() {
		t.Fatal("second negate must deassert")
	}
}

func TestSelectSessionFlagTarget(t *testing.T) {
	tag := newTag("30f4ab12cd0045e100000001")
	cmd := SelectCmd{Target: TargetS2, Action: ActionDeassertAssert, MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset, Mask: epc.New([]byte{0x30})}
	tag.ApplySelect(cmd) // matching → deassert → flag B
	if tag.Inventoried(S2) != FlagB {
		t.Fatalf("S2 flag = %v, want B", tag.Inventoried(S2))
	}
	if tag.Inventoried(S0) != FlagA || tag.Inventoried(S1) != FlagA || tag.Inventoried(S3) != FlagA {
		t.Fatal("other session flags must be untouched")
	}
	// Negate on inventoried flag.
	neg := cmd
	neg.Action = ActionNegateNothing
	tag.ApplySelect(neg)
	if tag.Inventoried(S2) != FlagA {
		t.Fatal("negate must flip B back to A")
	}
}

func TestQueryParticipationSelCriteria(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := func(sel Sel) Query { return Query{Sel: sel, Session: S1, Target: FlagA, Q: 0} }

	slTag := newTag("30f4ab12cd0045e100000001")
	slTag.ApplySelect(SelectCmd{Target: TargetSL, Action: ActionAssertNothing, MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset, Mask: epc.New([]byte{0x30})})
	plainTag := newTag("e0f4ab12cd0045e100000001")

	// Q=0 means a participating tag replies immediately.
	if !replied(slTag.HandleQuery(q(SelSL), rng)) {
		t.Fatal("SL tag must join an SL-only round")
	}
	if replied(plainTag.HandleQuery(q(SelSL), rng)) {
		t.Fatal("non-SL tag must stay out of an SL-only round")
	}
	if !replied(plainTag.HandleQuery(q(SelNotSL), rng)) {
		t.Fatal("non-SL tag must join a ~SL round")
	}
	slTag.Reset()
	if replied(slTag.HandleQuery(q(SelNotSL), rng)) {
		t.Fatal("SL tag must stay out of a ~SL round")
	}
	if !replied(slTag.HandleQuery(q(SelAll), rng)) || !replied(plainTag.HandleQuery(q(SelAll), rng)) {
		t.Fatal("all tags join a Sel=All round")
	}
}

// TestJoinsMirrorsHandleQuery: Joins predicts, without changing the tag,
// whether HandleQuery makes it join the round, in every inventory state,
// SL value and flag, for Queries of the tag's own session and another.
func TestJoinsMirrorsHandleQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, st := range []State{StateReady, StateArbitrate, StateReply, StateAcknowledged} {
		for _, sl := range []bool{false, true} {
			for _, inv := range []Flag{FlagA, FlagB} {
				for _, qs := range []Session{S1, S2} {
					for _, sel := range []Sel{SelAll, SelNotSL, SelSL} {
						for _, target := range []Flag{FlagA, FlagB} {
							tag := newTag("30f4ab12cd0045e100000001")
							tag.state, tag.session, tag.sl = st, S1, sl
							tag.inv[S1], tag.inv[S2] = inv, inv
							q := Query{Sel: sel, Session: qs, Target: target, Q: 4}
							before := *tag
							joins := tag.Joins(q)
							if *tag != before {
								t.Fatalf("Joins changed the tag: %+v -> %+v", before, *tag)
							}
							tag.HandleQuery(q, rng)
							if joined := tag.State() != StateReady; joined != joins {
								t.Fatalf("%v tag, SL %v, flag %v, %+v: Joins = %v, HandleQuery joined = %v",
									st, sl, inv, q, joins, joined)
							}
						}
					}
				}
			}
		}
	}
}

func TestQueryTargetFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tag := newTag("30f4ab12cd0045e100000001")
	tag.SetInventoried(S0, FlagB)
	if replied(tag.HandleQuery(Query{Session: S0, Target: FlagA, Q: 0}, rng)) {
		t.Fatal("B-flagged tag must not join an A-targeted round")
	}
	if !replied(tag.HandleQuery(Query{Session: S0, Target: FlagB, Q: 0}, rng)) {
		t.Fatal("B-flagged tag must join a B-targeted round")
	}
}

func TestSingulationFlipsInventoriedFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tag := newTag("30f4ab12cd0045e100000001")
	rep, ok := tag.HandleQuery(Query{Session: S1, Target: FlagA, Q: 0}, rng)
	if !ok {
		t.Fatal("Q=0 participant must reply")
	}
	er, ok := tag.HandleACK(ACK{RN16: rep.RN16})
	if !ok {
		t.Fatal("matching ACK must elicit the EPC")
	}
	if er.EPC != tag.EPC() {
		t.Fatalf("EPC reply = %s, want %s", er.EPC, tag.EPC())
	}
	// CRC must protect PC+EPC.
	body := []byte{byte(er.PC >> 8), byte(er.PC)}
	body = append(body, er.EPC.Bytes()...)
	if !epc.CheckCRC16(body, er.CRC) {
		t.Fatal("EPC reply CRC invalid")
	}
	if tag.State() != StateAcknowledged {
		t.Fatalf("state = %v, want Acknowledged", tag.State())
	}
	// The next QueryRep closes out the singulation: flag flips A→B.
	if replied(tag.HandleQueryRep(QueryRep{Session: S1}, rng)) {
		t.Fatal("acknowledged tag must not reply to QueryRep")
	}
	if tag.Inventoried(S1) != FlagB {
		t.Fatal("inventoried flag must flip after singulation")
	}
	if tag.State() != StateReady {
		t.Fatalf("state = %v, want Ready", tag.State())
	}
}

func TestNewQueryAlsoFlipsAcknowledged(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tag := newTag("30f4ab12cd0045e100000001")
	rep, _ := tag.HandleQuery(Query{Session: S1, Target: FlagA, Q: 0}, rng)
	tag.HandleACK(ACK{RN16: rep.RN16})
	// A fresh Query for the same session implicitly completes the
	// singulation; the tag (now FlagB) no longer participates in an
	// A-targeted round.
	if replied(tag.HandleQuery(Query{Session: S1, Target: FlagA, Q: 0}, rng)) {
		t.Fatal("flipped tag must not rejoin the A-targeted round")
	}
	if tag.Inventoried(S1) != FlagB {
		t.Fatal("flag must flip on the new Query")
	}
}

func TestWrongACKSendsTagToArbitrate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tag := newTag("30f4ab12cd0045e100000001")
	rep, _ := tag.HandleQuery(Query{Session: S0, Target: FlagA, Q: 0}, rng)
	if _, ok := tag.HandleACK(ACK{RN16: rep.RN16 ^ 0xFFFF}); ok {
		t.Fatal("wrong RN16 must not elicit an EPC")
	}
	if tag.State() != StateArbitrate {
		t.Fatalf("state = %v, want Arbitrate", tag.State())
	}
	if tag.Inventoried(S0) != FlagA {
		t.Fatal("failed singulation must not flip the flag")
	}
}

func TestACKOutsideReplyIgnored(t *testing.T) {
	tag := newTag("30f4ab12cd0045e100000001")
	if _, ok := tag.HandleACK(ACK{RN16: 7}); ok {
		t.Fatal("Ready tag must ignore ACK")
	}
}

func TestQueryRepCountdown(t *testing.T) {
	// Force a deterministic multi-slot draw by retrying seeds until the
	// tag picks slot 3 of a Q=3 frame, then count it down.
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tag := newTag("30f4ab12cd0045e100000001")
		if replied(tag.HandleQuery(Query{Session: S0, Target: FlagA, Q: 3}, rng)) {
			continue // drew slot 0
		}
		reps := 0
		for tag.State() == StateArbitrate && reps < 9 {
			reps++
			if replied(tag.HandleQueryRep(QueryRep{Session: S0}, rng)) {
				if reps > 7 {
					t.Fatalf("tag replied after %d reps in a Q=3 frame", reps)
				}
				return
			}
		}
		t.Fatalf("tag never replied within the frame (seed %d)", seed)
	}
	t.Skip("all seeds drew slot 0 — statistically impossible")
}

func TestQueryRepOtherSessionIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tag := newTag("30f4ab12cd0045e100000001")
	tag.HandleQuery(Query{Session: S2, Target: FlagA, Q: 4}, rng)
	st := tag.State()
	if replied(tag.HandleQueryRep(QueryRep{Session: S0}, rng)) || tag.State() != st {
		t.Fatal("QueryRep for another session must be ignored")
	}
}

func TestCollidedTagWaitsOutTheRound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tag := newTag("30f4ab12cd0045e100000001")
	if !replied(tag.HandleQuery(Query{Session: S0, Target: FlagA, Q: 0}, rng)) {
		t.Fatal("must reply at Q=0")
	}
	// Reader saw a collision: no ACK, just the next QueryRep.
	if replied(tag.HandleQueryRep(QueryRep{Session: S0}, rng)) {
		t.Fatal("collided tag must fall back to Arbitrate silently")
	}
	if tag.State() != StateArbitrate {
		t.Fatalf("state = %v, want Arbitrate", tag.State())
	}
	if tag.Inventoried(S0) != FlagA {
		t.Fatal("collided tag must keep its flag")
	}
}

func TestQueryAdjustRedraw(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tag := newTag("30f4ab12cd0045e100000001")
	tag.HandleQuery(Query{Session: S0, Target: FlagA, Q: 8}, rng)
	// Adjust down to Q=0: every arbitrating tag redraws in [0,1) → replies.
	if !replied(tag.HandleQueryAdjust(QueryAdjust{Session: S0, UpDn: -1}, 0, rng)) && tag.State() != StateReply {
		t.Fatalf("after adjust to Q=0 the tag must reply (state %v)", tag.State())
	}
	// Adjust for another session is ignored.
	tag2 := newTag("30f4ab12cd0045e100000002")
	tag2.HandleQuery(Query{Session: S2, Target: FlagA, Q: 8}, rng)
	st := tag2.State()
	if replied(tag2.HandleQueryAdjust(QueryAdjust{Session: S0, UpDn: -1}, 0, rng)) || tag2.State() != st {
		t.Fatal("adjust for another session must be ignored")
	}
}

func TestQueryAdjustCompletesAcknowledged(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tag := newTag("30f4ab12cd0045e100000001")
	rep, _ := tag.HandleQuery(Query{Session: S0, Target: FlagA, Q: 0}, rng)
	tag.HandleACK(ACK{RN16: rep.RN16})
	tag.HandleQueryAdjust(QueryAdjust{Session: S0}, 2, rng)
	if tag.Inventoried(S0) != FlagB || tag.State() != StateReady {
		t.Fatal("QueryAdjust must complete a pending singulation")
	}
}

func TestNAK(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tag := newTag("30f4ab12cd0045e100000001")
	rep, _ := tag.HandleQuery(Query{Session: S0, Target: FlagA, Q: 0}, rng)
	tag.HandleACK(ACK{RN16: rep.RN16})
	tag.HandleNAK()
	if tag.State() != StateArbitrate {
		t.Fatalf("state after NAK = %v, want Arbitrate", tag.State())
	}
	if tag.Inventoried(S0) != FlagA {
		t.Fatal("NAK must not flip the inventoried flag")
	}
	// NAK in Ready is a no-op.
	fresh := newTag("30f4ab12cd0045e100000002")
	fresh.HandleNAK()
	if fresh.State() != StateReady {
		t.Fatal("NAK in Ready must be a no-op")
	}
}

// TestFullRoundInventoriesEveryTagOnce drives a complete DFSA round over a
// population at the state-machine level and checks the fundamental
// invariant: every tag is singulated exactly once per round.
func TestFullRoundInventoriesEveryTagOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	popRng := rand.New(rand.NewSource(12))
	codes, err := epc.RandomPopulation(popRng, 30, 96)
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]*Tag, len(codes))
	for i, c := range codes {
		tags[i] = NewTag(epc.NewMemory(c))
	}
	reads := map[epc.EPC]int{}

	q := uint8(5)
	collect := func(replies map[*Tag]Reply) {
		if len(replies) != 1 {
			return // empty or collision
		}
		for tag, rep := range replies {
			if er, ok := tag.HandleACK(ACK{RN16: rep.RN16}); ok {
				reads[er.EPC]++
			}
		}
	}

	replies := map[*Tag]Reply{}
	for _, tag := range tags {
		if r, ok := tag.HandleQuery(Query{Session: S1, Target: FlagA, Q: q}, rng); ok {
			replies[tag] = r
		}
	}
	collect(replies)
	for slot := 0; slot < 4000; slot++ {
		replies = map[*Tag]Reply{}
		for _, tag := range tags {
			if r, ok := tag.HandleQueryRep(QueryRep{Session: S1}, rng); ok {
				replies[tag] = r
			}
		}
		collect(replies)
		done := true
		for _, tag := range tags {
			if tag.Inventoried(S1) != FlagB {
				done = false
				break
			}
		}
		if done {
			break
		}
		// Periodically re-query to recover collided tags (their counters
		// are exhausted), mimicking a reader starting a new frame within
		// the same round.
		if slot%64 == 63 {
			for _, tag := range tags {
				if r, ok := tag.HandleQuery(Query{Session: S1, Target: FlagA, Q: q}, rng); ok {
					replies[tag] = r
				} else if tag.State() == StateReply {
					replies[tag] = Reply{}
				}
			}
			collect(replies)
		}
	}
	for _, c := range codes {
		if reads[c] != 1 {
			t.Fatalf("tag %s read %d times, want exactly 1", c, reads[c])
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if S2.String() != "S2" || FlagA.String() != "A" || FlagB.String() != "B" {
		t.Fatal("session/flag strings")
	}
	if StateReady.String() != "Ready" || StateArbitrate.String() != "Arbitrate" ||
		StateReply.String() != "Reply" || StateAcknowledged.String() != "Acknowledged" {
		t.Fatal("state strings")
	}
	if State(9).String() == "" || Target(2).String() == "" || TargetSL.String() != "SL" {
		t.Fatal("fallback strings")
	}
	if FlagA.Invert() != FlagB || FlagB.Invert() != FlagA {
		t.Fatal("Invert")
	}
}

func TestSelectCmdString(t *testing.T) {
	cmd := SelectCmd{Target: TargetSL, Action: ActionAssertDeassert, MemBank: epc.BankEPC, Pointer: 32, Mask: epc.New([]byte{0xAB})}
	if cmd.String() == "" || cmd.Length() != 8 {
		t.Fatal("SelectCmd rendering")
	}
	weird := SelectCmd{Action: Action(250)}
	if weird.String() == "" {
		t.Fatal("unknown action must still render")
	}
}

func TestSelectCommandBitsEBV(t *testing.T) {
	base := SelectCmd{Mask: epc.New([]byte{0xFF})} // 8-bit mask, pointer 0
	if got := base.CommandBits(); got != 4+3+3+2+8+8+8+1+16 {
		t.Fatalf("CommandBits = %d", got)
	}
	far := base
	far.Pointer = 200 // needs a 2-block EBV
	if far.CommandBits() != base.CommandBits()+8 {
		t.Fatal("pointer ≥128 must add one EBV block")
	}
	veryFar := base
	veryFar.Pointer = 20000 // 3 blocks
	if veryFar.CommandBits() != base.CommandBits()+16 {
		t.Fatal("pointer ≥16384 must add two EBV blocks")
	}
}
