package epc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndString(t *testing.T) {
	e := New([]byte{0x30, 0xF4, 0xAB})
	if e.Bits() != 24 {
		t.Fatalf("Bits() = %d, want 24", e.Bits())
	}
	if got := e.String(); got != "30f4ab" {
		t.Fatalf("String() = %q, want 30f4ab", got)
	}
}

func TestCompareFollowsHexOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop, err := RandomPopulation(rng, 200, 96)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pop); i++ {
		a, b := pop[i-1], pop[i]
		if got, want := Compare(a, b), strings.Compare(a.String(), b.String()); got != want {
			t.Fatalf("Compare(%s, %s) = %d, hex order says %d", a, b, got, want)
		}
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%s, itself) != 0", a)
		}
	}
	// Equal bytes, different lengths: distinct EPCs, ordered by length.
	short, _ := NewBits([]byte{0xAB, 0xC0}, 12)
	long := New([]byte{0xAB, 0xC0})
	if Compare(short, long) != -1 || Compare(long, short) != 1 {
		t.Fatalf("12-bit %s vs 16-bit %s: want the shorter first", short, long)
	}
	if got := long.AppendBytes([]byte{0x01}); string(got) != "\x01\xab\xc0" {
		t.Fatalf("AppendBytes = %x", got)
	}
}

func TestNewBitsTrimsTrailing(t *testing.T) {
	a, err := NewBits([]byte{0xFF, 0xFF}, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBits([]byte{0xFF, 0xF0}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("EPCs with identical 12-bit prefixes must compare equal: %v vs %v", a, b)
	}
	if a.Bits() != 12 {
		t.Fatalf("Bits() = %d, want 12", a.Bits())
	}
}

func TestNewBitsErrors(t *testing.T) {
	if _, err := NewBits([]byte{0xAB}, 9); err == nil {
		t.Fatal("expected error for 9 bits from 1 byte")
	}
	if _, err := NewBits(nil, -1); err == nil {
		t.Fatal("expected error for negative bit count")
	}
}

func TestParse(t *testing.T) {
	e, err := Parse("0x30F4 AB12 CD00 45E1 0000 0001")
	if err != nil {
		t.Fatal(err)
	}
	if e.Bits() != 96 {
		t.Fatalf("Bits() = %d, want 96", e.Bits())
	}
	if e.String() != "30f4ab12cd0045e100000001" {
		t.Fatalf("round trip mismatch: %s", e)
	}
	if _, err := Parse("zz"); err == nil {
		t.Fatal("expected parse error for non-hex input")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse must panic on invalid input")
		}
	}()
	MustParse("not-hex")
}

func TestBitIndexing(t *testing.T) {
	e := New([]byte{0b1010_0001})
	want := []byte{1, 0, 1, 0, 0, 0, 0, 1}
	for i, w := range want {
		if got := e.Bit(i); got != w {
			t.Errorf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bit must panic out of range")
		}
	}()
	New([]byte{0}).Bit(8)
}

func TestSlice(t *testing.T) {
	// 001110 010010 101100 as in the paper's Fig. 9 example tags.
	e := FromUint64(0b001110, 6)
	got, err := e.Slice(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint64() != 0b11 {
		t.Fatalf("Slice(2,2) = %b, want 11", got.Uint64())
	}
	if _, err := e.Slice(5, 3); err == nil {
		t.Fatal("expected out-of-range slice error")
	}
	if _, err := e.Slice(-1, 2); err == nil {
		t.Fatal("expected negative offset error")
	}
}

func TestMatchBitsPaperExample(t *testing.T) {
	// Fig. 9(a): bitmask S1(10₂, 4, 2) covers 001110₂ and 010010₂ and
	// collaterally covers 110110₂... wait, S1 there is (10₂, pointer=4?).
	// The paper's figure uses 1-indexed text; we verify the underlying
	// semantics: mask "10" at offset 4 of 001110 is bits[4:6] = "10".
	tags := map[uint64]bool{ // tag -> should match mask 10 at offset 4
		0b001110: true,
		0b010010: true,
		0b110110: true,
		0b101100: false,
	}
	mask := FromUint64(0b10, 2)
	for v, want := range tags {
		e := FromUint64(v, 6)
		if got := e.MatchBits(4, mask); got != want {
			t.Errorf("MatchBits(%06b, offset 4, mask 10) = %v, want %v", v, got, want)
		}
	}
}

func TestMatchBitsOverrun(t *testing.T) {
	e := FromUint64(0b1111, 4)
	if e.MatchBits(2, FromUint64(0b111, 3)) {
		t.Fatal("mask overrunning the EPC must not match")
	}
	if e.MatchBits(-1, FromUint64(0b1, 1)) {
		t.Fatal("negative offset must not match")
	}
	if !e.MatchBits(1, FromUint64(0b111, 3)) {
		t.Fatal("in-range suffix must match")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v &= (1 << 48) - 1
		return FromUint64(v, 48).Uint64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceMatchesBitProperty(t *testing.T) {
	// Property: for any EPC, slicing [off, off+n) then matching it back at
	// off always succeeds.
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, 12)
		r.Read(buf)
		e := New(buf)
		off := rng.Intn(90)
		n := 1 + rng.Intn(96-off)
		s, err := e.Slice(off, n)
		if err != nil {
			return false
		}
		return e.MatchBits(off, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// matchBitsByBit is MatchBits' definition, one bit at a time.
func matchBitsByBit(e EPC, offset int, mask EPC) bool {
	if offset < 0 || offset+mask.Bits() > e.Bits() {
		return false
	}
	for i := 0; i < mask.Bits(); i++ {
		if e.Bit(offset+i) != mask.Bit(i) {
			return false
		}
	}
	return true
}

// TestMatchBitsMatchesDefinition checks the byte-wise MatchBits against
// its bit-by-bit definition over random EPCs of every length up to 130
// bits, offsets from -2 to past the end, and masks that are the window
// itself, the window with one bit flipped, random, or longer than what
// is left of the EPC.
func TestMatchBitsMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := func(bits int) EPC {
		buf := make([]byte, (bits+7)/8)
		rng.Read(buf)
		e, err := NewBits(buf, bits)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	matches := 0
	for i := 0; i < 20000; i++ {
		e := random(rng.Intn(131))
		off := rng.Intn(e.Bits()+5) - 2
		n := rng.Intn(e.Bits() + 3)
		var mask EPC
		switch kind := rng.Intn(4); {
		case kind < 2 && off >= 0 && off+n <= e.Bits():
			mask, _ = e.Slice(off, n)
			if kind == 1 && n > 0 {
				b := mask.Bytes()
				j := rng.Intn(n)
				b[j/8] ^= 1 << (7 - j%8)
				mask, _ = NewBits(b, n)
			}
		default:
			mask = random(n)
		}
		want := matchBitsByBit(e, off, mask)
		if got := e.MatchBits(off, mask); got != want {
			t.Fatalf("%s (%d bits).MatchBits(%d, %s (%d bits)) = %v, want %v", e, e.Bits(), off, mask, mask.Bits(), got, want)
		}
		if want {
			matches++
		}
	}
	if matches < 2000 {
		t.Fatalf("only %d of 20000 cases matched; the test exercises too few matches", matches)
	}
}

func TestFromUint64Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromUint64 must panic for bits > 64")
		}
	}()
	FromUint64(1, 65)
}

func TestRandomPopulationUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pop, err := RandomPopulation(rng, 400, StandardBits)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop) != 400 {
		t.Fatalf("len = %d, want 400", len(pop))
	}
	seen := map[EPC]struct{}{}
	for _, e := range pop {
		if e.Bits() != StandardBits {
			t.Fatalf("EPC bits = %d, want %d", e.Bits(), StandardBits)
		}
		if _, dup := seen[e]; dup {
			t.Fatalf("duplicate EPC %s", e)
		}
		seen[e] = struct{}{}
	}
}

func TestRandomPopulationSmallSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop, err := RandomPopulation(rng, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop) != 16 {
		t.Fatalf("want all 16 4-bit EPCs, got %d", len(pop))
	}
	if _, err := RandomPopulation(rng, 17, 4); err == nil {
		t.Fatal("17 unique EPCs cannot fit a 4-bit space")
	}
	if _, err := RandomPopulation(rng, 1, 0); err == nil {
		t.Fatal("zero bit length must error")
	}
}

func TestRandomPopulationDeterministic(t *testing.T) {
	a, _ := RandomPopulation(rand.New(rand.NewSource(9)), 10, 96)
	b, _ := RandomPopulation(rand.New(rand.NewSource(9)), 10, 96)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must yield same population (index %d)", i)
		}
	}
}

func TestSequentialPopulation(t *testing.T) {
	hdr := []byte{0x30, 0x11, 0x22}
	pop, err := SequentialPopulation(hdr, 100, 5, 96)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop) != 5 {
		t.Fatalf("len = %d, want 5", len(pop))
	}
	for i, e := range pop {
		b := e.Bytes()
		if b[0] != 0x30 || b[1] != 0x11 {
			t.Fatalf("header lost: %s", e)
		}
		serial := uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])
		if serial != 100+uint32(i) {
			t.Fatalf("serial[%d] = %d, want %d", i, serial, 100+uint32(i))
		}
	}
	if _, err := SequentialPopulation(nil, 0, 1, 16); err == nil {
		t.Fatal("sub-32-bit sequential population must error")
	}
}

func TestStringIsLowerHex(t *testing.T) {
	e := MustParse("ABCDEF")
	if e.String() != strings.ToLower("ABCDEF") {
		t.Fatalf("String() = %q", e.String())
	}
}
