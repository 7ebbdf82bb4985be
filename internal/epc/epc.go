// Package epc models EPC Gen2 tag identities and tag memory.
//
// The package provides the Electronic Product Code (EPC) value type used
// throughout the simulator and the middleware, the four Gen2 memory banks
// (Reserved, EPC, TID, User), and the CRC algorithms mandated by the EPC
// Gen2 air protocol (CRC-16/CCITT for EPC memory and backscattered replies,
// CRC-5 for Query commands).
//
// An EPC is an immutable bit string. The paper's bitmask scheduling (§5)
// addresses EPCs at arbitrary bit offsets, so the package exposes exact
// bit-level accessors rather than only byte-level ones.
package epc

import (
	"cmp"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// StandardBits is the length in bits of the EPC-96 identifiers used in the
// paper's evaluation ("let L be the bit length of the EPC number (e.g., 96
// or 128 bits)").
const StandardBits = 96

// EPC is an Electronic Product Code: an immutable big-endian bit string.
// Bit 0 is the most significant bit of the first byte, matching the
// addressing convention of the Gen2 Select command.
type EPC struct {
	bits int
	data string // raw bytes, comparable; kept as string so EPC is a map key
}

// New builds an EPC from raw bytes, using every bit of data.
func New(data []byte) EPC {
	return EPC{bits: len(data) * 8, data: string(data)}
}

// NewBits builds an EPC of exactly bits length from data. Trailing bits of
// the final byte beyond the requested length are cleared so that equal EPCs
// compare equal.
func NewBits(data []byte, bits int) (EPC, error) {
	if bits < 0 {
		return EPC{}, fmt.Errorf("epc: negative bit length %d", bits)
	}
	need := (bits + 7) / 8
	if need > len(data) {
		return EPC{}, fmt.Errorf("epc: %d bits need %d bytes, have %d", bits, need, len(data))
	}
	b := make([]byte, need)
	copy(b, data[:need])
	if rem := bits % 8; rem != 0 && need > 0 {
		b[need-1] &= byte(0xFF << (8 - rem))
	}
	return EPC{bits: bits, data: string(b)}, nil
}

// Parse decodes a hexadecimal EPC string such as
// "30f4ab12cd0045e100000001". Whitespace and "0x" prefixes are ignored.
func Parse(s string) (EPC, error) {
	s = strings.TrimSpace(strings.TrimPrefix(strings.ToLower(s), "0x"))
	s = strings.ReplaceAll(s, " ", "")
	raw, err := hex.DecodeString(s)
	if err != nil {
		return EPC{}, fmt.Errorf("epc: parse %q: %w", s, err)
	}
	return New(raw), nil
}

// MustParse is Parse for test fixtures and examples; it panics on error.
func MustParse(s string) EPC {
	e, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return e
}

// Bits returns the EPC length in bits.
func (e EPC) Bits() int { return e.bits }

// Bytes returns a fresh copy of the EPC's raw bytes.
func (e EPC) Bytes() []byte { return []byte(e.data) }

// AppendBytes appends the EPC's raw bytes to b and returns the extended
// slice; unlike Bytes it allocates nothing when b has room.
func (e EPC) AppendBytes(b []byte) []byte { return append(b, e.data...) }

// Compare orders EPCs by their bytes, then by bit length, returning -1, 0
// or +1. For EPCs of one length this is also the order of their hex
// strings.
func Compare(a, b EPC) int {
	if c := strings.Compare(a.data, b.data); c != 0 {
		return c
	}
	return cmp.Compare(a.bits, b.bits)
}

// IsZero reports whether e is the zero EPC (no bits at all).
func (e EPC) IsZero() bool { return e.bits == 0 }

// String renders the EPC as lowercase hex.
func (e EPC) String() string { return hex.EncodeToString([]byte(e.data)) }

// Bit returns bit i (0 = MSB of the first byte). It panics if i is out of
// range, mirroring slice indexing.
func (e EPC) Bit(i int) byte {
	if i < 0 || i >= e.bits {
		panic(fmt.Sprintf("epc: bit index %d out of range [0,%d)", i, e.bits))
	}
	return (e.data[i/8] >> (7 - i%8)) & 1
}

// Slice extracts length bits starting at bit offset as a new EPC. It returns
// an error when the window exceeds the EPC, mirroring how a Gen2 tag treats
// an out-of-range mask (non-matching rather than panicking).
func (e EPC) Slice(offset, length int) (EPC, error) {
	if offset < 0 || length < 0 || offset+length > e.bits {
		return EPC{}, fmt.Errorf("epc: slice [%d,%d) out of %d bits", offset, offset+length, e.bits)
	}
	out := make([]byte, (length+7)/8)
	for i := 0; i < length; i++ {
		if e.Bit(offset+i) == 1 {
			out[i/8] |= 1 << (7 - i%8)
		}
	}
	ne, _ := NewBits(out, length)
	return ne, nil
}

// MatchBits reports whether the EPC's bits [offset, offset+len(mask bits))
// equal the given mask. A window that extends beyond the EPC never matches,
// which is the Gen2 tag behaviour for an overlong Select mask.
func (e EPC) MatchBits(offset int, mask EPC) bool {
	if offset < 0 || offset+mask.bits > e.bits {
		return false
	}
	// Byte i of the window is src[i]<<shift | src[i+1]>>(8-shift); the
	// bounds check above guarantees src[i+1] exists whenever a window bit
	// lies in it.
	src, shift := e.data[offset/8:], uint(offset%8)
	full := mask.bits / 8
	for i := 0; i < full; i++ {
		b := src[i] << shift
		if shift != 0 {
			b |= src[i+1] >> (8 - shift)
		}
		if b != mask.data[i] {
			return false
		}
	}
	rem := mask.bits % 8
	if rem == 0 {
		return true
	}
	b := src[full] << shift
	if shift != 0 && full+1 < len(src) {
		b |= src[full+1] >> (8 - shift)
	}
	return (b^mask.data[full])&(0xFF<<(8-rem)) == 0
}

// Uint64 interprets the first min(64, Bits()) bits as a big-endian integer.
// Convenient for compact test assertions on short synthetic EPCs.
func (e EPC) Uint64() uint64 {
	var v uint64
	n := e.bits
	if n > 64 {
		n = 64
	}
	for i := 0; i < n; i++ {
		v = v<<1 | uint64(e.Bit(i))
	}
	return v
}

// FromUint64 builds an EPC of the given bit length from the low `bits` bits
// of v (MSB first). Used by tests and the paper's 6-bit worked examples.
func FromUint64(v uint64, bits int) EPC {
	if bits < 0 || bits > 64 {
		panic(fmt.Sprintf("epc: FromUint64 bits %d out of range", bits))
	}
	out := make([]byte, (bits+7)/8)
	for i := 0; i < bits; i++ {
		if v>>(uint(bits-1-i))&1 == 1 {
			out[i/8] |= 1 << (7 - i%8)
		}
	}
	e, _ := NewBits(out, bits)
	return e
}

// ErrDuplicate is returned by population builders when uniqueness cannot be
// satisfied (e.g. more EPCs requested than the bit space holds).
var ErrDuplicate = errors.New("epc: cannot generate enough unique EPCs")

// RandomPopulation draws n unique uniformly random EPCs of the given bit
// length from rng. The evaluation deploys "tags with random EPCs" (§7.2);
// deterministic seeding keeps experiments reproducible.
func RandomPopulation(rng *rand.Rand, n, bits int) ([]EPC, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("epc: population bit length %d must be positive", bits)
	}
	if bits < 63 && n > 1<<uint(bits) {
		return nil, fmt.Errorf("%w: %d EPCs from a %d-bit space", ErrDuplicate, n, bits)
	}
	seen := make(map[EPC]struct{}, n)
	out := make([]EPC, 0, n)
	buf := make([]byte, (bits+7)/8)
	for attempts := 0; len(out) < n; attempts++ {
		if attempts > 64*n+1024 {
			return nil, fmt.Errorf("%w: gave up after %d attempts", ErrDuplicate, attempts)
		}
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		e, err := NewBits(buf, bits)
		if err != nil {
			return nil, err
		}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	return out, nil
}

// SequentialPopulation builds n EPCs whose low 32 bits count upward from
// start, with the given fixed header bytes. Real deployments often carry
// near-sequential serials; several tests use this to stress the bitmask
// scheduler with highly clustered EPCs.
func SequentialPopulation(header []byte, start uint32, n, bits int) ([]EPC, error) {
	if bits < 32 {
		return nil, fmt.Errorf("epc: sequential population needs >=32 bits, got %d", bits)
	}
	out := make([]EPC, 0, n)
	nbytes := (bits + 7) / 8
	for i := 0; i < n; i++ {
		b := make([]byte, nbytes)
		copy(b, header)
		serial := start + uint32(i)
		b[nbytes-4] = byte(serial >> 24)
		b[nbytes-3] = byte(serial >> 16)
		b[nbytes-2] = byte(serial >> 8)
		b[nbytes-1] = byte(serial)
		e, err := NewBits(b, bits)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
