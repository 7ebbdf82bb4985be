package gen2

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tagwatch/internal/epc"
)

// TestSelectTouchesOnlyTargetProperty: a Select command may change only
// the flag its Target names; every other flag is invariant.
func TestSelectTouchesOnlyTargetProperty(t *testing.T) {
	f := func(seed int64, action, target uint8, maskByte uint8, maskLen uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pop, err := epc.RandomPopulation(rng, 1, 96)
		if err != nil {
			return false
		}
		tag := NewTag(epc.NewMemory(pop[0]))
		// Randomise initial flags.
		for s := S0; s <= S3; s++ {
			if rng.Intn(2) == 1 {
				tag.SetInventoried(s, FlagB)
			}
		}
		beforeSL := tag.SL()
		var before [4]Flag
		for s := S0; s <= S3; s++ {
			before[s] = tag.Inventoried(s)
		}

		mask, err := epc.NewBits([]byte{maskByte}, int(maskLen%9))
		if err != nil {
			return false
		}
		cmd := SelectCmd{
			Target:  Target(target % 5),
			Action:  Action(action % 8),
			MemBank: epc.BankEPC,
			Pointer: int(seed%64) + 0,
			Mask:    mask,
		}
		tag.ApplySelect(cmd)

		for s := S0; s <= S3; s++ {
			if Target(s) != cmd.Target && tag.Inventoried(s) != before[s] {
				return false
			}
		}
		if cmd.Target != TargetSL && tag.SL() != beforeSL {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroLengthMaskMatchesAll: the zero-length mask is the universal
// match the reader uses to reset session flags.
func TestZeroLengthMaskMatchesAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pop, err := epc.RandomPopulation(rng, 1, 96)
		if err != nil {
			return false
		}
		cmd := SelectCmd{MemBank: epc.BankEPC, Pointer: 0}
		return cmd.Matches(epc.NewMemory(pop[0]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestParticipationMatchesSelAndFlagProperty: a tag joins a round exactly
// when its SL and inventoried flags satisfy the Query's criteria.
func TestParticipationMatchesSelAndFlagProperty(t *testing.T) {
	f := func(seed int64, sl bool, flagB bool, sel uint8, target bool) bool {
		rng := rand.New(rand.NewSource(seed))
		pop, err := epc.RandomPopulation(rng, 1, 96)
		if err != nil {
			return false
		}
		tag := NewTag(epc.NewMemory(pop[0]))
		if sl {
			tag.ApplySelect(SelectCmd{Target: TargetSL, Action: ActionAssertNothing, MemBank: epc.BankEPC})
		}
		if flagB {
			tag.SetInventoried(S2, FlagB)
		}
		q := Query{Session: S2, Q: 0}
		switch sel % 3 {
		case 0:
			q.Sel = SelAll
		case 1:
			q.Sel = SelNotSL
		case 2:
			q.Sel = SelSL
		}
		if target {
			q.Target = FlagB
		}
		want := true
		if q.Sel == SelSL && !sl {
			want = false
		}
		if q.Sel == SelNotSL && sl {
			want = false
		}
		if (q.Target == FlagB) != flagB {
			want = false
		}
		_, got := tag.HandleQuery(q, rng) // Q=0 ⇒ participants reply
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
