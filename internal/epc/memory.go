package epc

import "fmt"

// MemoryBank identifies one of the four Gen2 tag memory banks. The Select
// command's MemBank field names the bank its Mask is compared against; the
// paper fixes it to the EPC bank ("the MemBank is constantly set to the
// second bank").
type MemoryBank uint8

const (
	// BankReserved holds the kill and access passwords.
	BankReserved MemoryBank = 0
	// BankEPC holds StoredCRC (bits 0x00-0x0F), StoredPC (0x10-0x1F) and
	// the EPC code beginning at bit 0x20.
	BankEPC MemoryBank = 1
	// BankTID holds the tag's permalocked manufacturer identity.
	BankTID MemoryBank = 2
	// BankUser holds optional application data.
	BankUser MemoryBank = 3
)

// String implements fmt.Stringer for log and error messages.
func (b MemoryBank) String() string {
	switch b {
	case BankReserved:
		return "Reserved"
	case BankEPC:
		return "EPC"
	case BankTID:
		return "TID"
	case BankUser:
		return "User"
	default:
		return fmt.Sprintf("MemoryBank(%d)", uint8(b))
	}
}

// EPCWordOffset is the bit address within the EPC bank at which the EPC
// code itself begins (after StoredCRC and StoredPC).
const EPCWordOffset = 0x20

// Memory is the addressable memory of one Gen2 tag. Banks are bit strings
// addressed MSB-first, exactly as the Select command addresses them.
// Build one with NewMemory.
type Memory struct {
	banks [4]EPC
	// code, pc and crc memoise what a singulated tag backscatters, decoded
	// from the EPC bank once per change: the EPC its StoredPC delimits,
	// the PC word whose length field counts that EPC's words, and the
	// CRC-16 over both. SetEPC and SetBank refresh them.
	code    EPC
	pc, crc uint16
}

// NewMemory lays out tag memory around an EPC code: the EPC bank is
// StoredCRC‖StoredPC‖EPC, the TID bank carries a synthetic 96-bit identity
// derived from the EPC, and Reserved/User start zeroed.
func NewMemory(code EPC) *Memory {
	m := &Memory{}
	m.SetEPC(code)
	// Synthetic but stable TID: E2h class identifier then a scramble of the
	// EPC bytes, enough for tests that select on the TID bank.
	tid := make([]byte, 12)
	tid[0] = 0xE2
	src := code.Bytes()
	for i := 1; i < len(tid); i++ {
		var b byte
		if len(src) > 0 {
			b = src[(i*7)%len(src)]
		}
		tid[i] = b ^ byte(i*31)
	}
	m.banks[BankTID] = New(tid)
	m.banks[BankReserved] = New(make([]byte, 8)) // kill + access passwords
	return m
}

// SetEPC replaces the EPC code, recomputing StoredPC and StoredCRC. The PC
// word's length field (5 bits) counts 16-bit words of PC+EPC as per Gen2.
func (m *Memory) SetEPC(code EPC) {
	words := (code.Bits() + 15) / 16
	pc := uint16(words) << 11
	body := make([]byte, 2+2*words)
	body[0] = byte(pc >> 8)
	body[1] = byte(pc)
	copy(body[2:], code.Bytes())
	crc := CRC16(body)
	bank := make([]byte, 2+len(body))
	bank[0] = byte(crc >> 8)
	bank[1] = byte(crc)
	copy(bank[2:], body)
	m.banks[BankEPC] = New(bank)
	m.decode()
}

// EPC returns the EPC code stored in the EPC bank (the bits after
// StoredCRC+StoredPC, trimmed to the PC word's length field).
func (m *Memory) EPC() EPC { return m.code }

// PC returns the protocol-control word a tag backscatters ahead of EPC():
// its 5-bit length field counts EPC()'s 16-bit words.
func (m *Memory) PC() uint16 { return m.pc }

// CRC returns the CRC-16 a tag backscatters after PC() and EPC(),
// computed over both.
func (m *Memory) CRC() uint16 { return m.crc }

// decode refreshes the memo from the EPC bank.
func (m *Memory) decode() {
	m.code = m.decodeEPC()
	words := (m.code.Bits() + 15) / 16
	m.pc = uint16(words) << 11
	m.crc = CRC16(m.code.AppendBytes([]byte{byte(m.pc >> 8), byte(m.pc)}))
}

// decodeEPC slices the EPC code out of the EPC bank.
func (m *Memory) decodeEPC() EPC {
	bank := m.banks[BankEPC]
	if bank.Bits() < EPCWordOffset {
		return EPC{}
	}
	pcw, err := bank.Slice(16, 16)
	if err != nil {
		return EPC{}
	}
	words := int(pcw.Uint64() >> 11)
	n := 16 * words
	if EPCWordOffset+n > bank.Bits() {
		n = bank.Bits() - EPCWordOffset
	}
	code, err := bank.Slice(EPCWordOffset, n)
	if err != nil {
		return EPC{}
	}
	return code
}

// Bank returns the raw contents of a memory bank.
func (m *Memory) Bank(b MemoryBank) EPC {
	if b > BankUser {
		return EPC{}
	}
	return m.banks[b]
}

// SetBank replaces a bank's raw contents. Tests use it to craft User-bank
// select targets.
func (m *Memory) SetBank(b MemoryBank, v EPC) error {
	if b > BankUser {
		return fmt.Errorf("epc: invalid memory bank %d", b)
	}
	m.banks[b] = v
	if b == BankEPC {
		m.decode()
	}
	return nil
}

// Match reports whether the bank's bits starting at pointer equal mask —
// the tag-side predicate of the Select command. Per Gen2, a mask window
// that runs past the end of the bank does not match.
func (m *Memory) Match(bank MemoryBank, pointer int, mask EPC) bool {
	if bank > BankUser {
		return false
	}
	return m.banks[bank].MatchBits(pointer, mask)
}
