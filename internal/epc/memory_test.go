package epc

import (
	"math/rand"
	"testing"
)

func TestMemoryEPCRoundTrip(t *testing.T) {
	code := MustParse("30f4ab12cd0045e100000001")
	m := NewMemory(code)
	if got := m.EPC(); got != code {
		t.Fatalf("EPC round trip: got %s, want %s", got, code)
	}
}

func TestMemoryEPCBankLayout(t *testing.T) {
	code := MustParse("30f4ab12cd0045e100000001")
	m := NewMemory(code)
	bank := m.Bank(BankEPC)
	// StoredCRC(16) + StoredPC(16) + EPC(96) = 128 bits.
	if bank.Bits() != 128 {
		t.Fatalf("EPC bank bits = %d, want 128", bank.Bits())
	}
	pcw, err := bank.Slice(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if words := pcw.Uint64() >> 11; words != 6 {
		t.Fatalf("PC length field = %d words, want 6 for a 96-bit EPC", words)
	}
	// StoredCRC covers PC+EPC.
	raw := bank.Bytes()
	sum := uint16(raw[0])<<8 | uint16(raw[1])
	if !CheckCRC16(raw[2:], sum) {
		t.Fatal("StoredCRC does not validate PC+EPC")
	}
	// EPC code must appear at bit 0x20.
	got, err := bank.Slice(EPCWordOffset, 96)
	if err != nil {
		t.Fatal(err)
	}
	if got != code {
		t.Fatalf("EPC at 0x20 = %s, want %s", got, code)
	}
}

func TestMemorySetEPCReplaces(t *testing.T) {
	m := NewMemory(MustParse("000000000000000000000001"))
	next := MustParse("deadbeefdeadbeefdeadbeef")
	m.SetEPC(next)
	if m.EPC() != next {
		t.Fatalf("SetEPC: got %s, want %s", m.EPC(), next)
	}
}

// TestMemoryMemoFollowsTheEPCBank: EPC, PC and CRC are decoded once per
// change, so SetEPC and SetBank(BankEPC) must refresh them, and they must
// equal what decoding the bank gives: the EPC the StoredPC delimits, a PC
// word counting its words, and the CRC-16 over both.
func TestMemoryMemoFollowsTheEPCBank(t *testing.T) {
	check := func(m *Memory, want EPC) {
		t.Helper()
		if m.EPC() != want {
			t.Fatalf("EPC() = %s (%d bits), want %s (%d bits)", m.EPC(), m.EPC().Bits(), want, want.Bits())
		}
		if words := (want.Bits() + 15) / 16; m.PC() != uint16(words)<<11 {
			t.Fatalf("PC() = %#04x, want %d words", m.PC(), words)
		}
		if !CheckCRC16(want.AppendBytes([]byte{byte(m.PC() >> 8), byte(m.PC())}), m.CRC()) {
			t.Fatalf("CRC() = %#04x does not protect PC+EPC", m.CRC())
		}
	}
	m := NewMemory(MustParse("30f4ab12cd0045e100000001"))
	check(m, MustParse("30f4ab12cd0045e100000001"))
	m.SetEPC(MustParse("deadbeef"))
	check(m, MustParse("deadbeef"))
	// A 20-bit code fills two words; the tag backscatters both.
	short, _ := NewBits([]byte{0xAB, 0xCD, 0xE0}, 20)
	m.SetEPC(short)
	check(m, MustParse("abcde000"))
	// A raw bank whose StoredPC claims one word more than it holds
	// yields what the bank has; a user-bank write leaves the memo alone.
	if err := m.SetBank(BankEPC, MustParse("0000 1800 1122 3344")); err != nil {
		t.Fatal(err)
	}
	check(m, MustParse("11223344"))
	if err := m.SetBank(BankUser, MustParse("cafe")); err != nil {
		t.Fatal(err)
	}
	check(m, MustParse("11223344"))
	if err := m.SetBank(BankEPC, MustParse("00")); err != nil {
		t.Fatal(err)
	}
	check(m, EPC{})
}

func TestMemoryTIDStableAndDistinct(t *testing.T) {
	a := NewMemory(MustParse("30f4ab12cd0045e100000001"))
	b := NewMemory(MustParse("30f4ab12cd0045e100000001"))
	c := NewMemory(MustParse("30f4ab12cd0045e100000002"))
	if a.Bank(BankTID) != b.Bank(BankTID) {
		t.Fatal("TID must be a pure function of the EPC")
	}
	if a.Bank(BankTID) == c.Bank(BankTID) {
		t.Fatal("different EPCs should yield different TIDs")
	}
	if a.Bank(BankTID).Bytes()[0] != 0xE2 {
		t.Fatal("TID must start with the E2h class identifier")
	}
}

func TestMemoryMatchEPCBank(t *testing.T) {
	code := MustParse("30f4ab12cd0045e100000001")
	m := NewMemory(code)
	// Select pointing at the EPC code region: first byte of the EPC is
	// 0x30, at bank bit offset 0x20.
	mask := New([]byte{0x30})
	if !m.Match(BankEPC, EPCWordOffset, mask) {
		t.Fatal("mask 0x30 at 0x20 should match")
	}
	if m.Match(BankEPC, EPCWordOffset+4, mask) {
		t.Fatal("shifted mask should not match")
	}
	// Overrunning window never matches.
	long := New(make([]byte, 32))
	if m.Match(BankEPC, EPCWordOffset, long) {
		t.Fatal("overrunning mask must not match")
	}
}

func TestMemoryMatchInvalidBank(t *testing.T) {
	m := NewMemory(MustParse("01"))
	if m.Match(MemoryBank(7), 0, New([]byte{0})) {
		t.Fatal("invalid bank must not match")
	}
	if !m.Bank(MemoryBank(9)).IsZero() {
		t.Fatal("invalid bank read must return zero EPC")
	}
}

func TestMemorySetBank(t *testing.T) {
	m := NewMemory(MustParse("01"))
	user := MustParse("cafebabe")
	if err := m.SetBank(BankUser, user); err != nil {
		t.Fatal(err)
	}
	if !m.Match(BankUser, 0, New([]byte{0xCA, 0xFE})) {
		t.Fatal("user bank mask should match after SetBank")
	}
	if err := m.SetBank(MemoryBank(4), user); err == nil {
		t.Fatal("SetBank must reject invalid banks")
	}
}

func TestMemoryBankStrings(t *testing.T) {
	cases := map[MemoryBank]string{
		BankReserved:  "Reserved",
		BankEPC:       "EPC",
		BankTID:       "TID",
		BankUser:      "User",
		MemoryBank(9): "MemoryBank(9)",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", b, got, want)
		}
	}
}

func TestMemoryMatchAgainstPopulation(t *testing.T) {
	// Property-style check: Memory.Match on the EPC bank agrees with
	// EPC.MatchBits shifted by the 0x20 header for random populations.
	rng := rand.New(rand.NewSource(3))
	pop, err := RandomPopulation(rng, 64, 96)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range pop {
		m := NewMemory(code)
		off := rng.Intn(90)
		n := 1 + rng.Intn(96-off)
		mask, err := code.Slice(off, n)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Match(BankEPC, EPCWordOffset+off, mask) {
			t.Fatalf("self-derived mask must match (epc %s off %d len %d)", code, off, n)
		}
	}
}
