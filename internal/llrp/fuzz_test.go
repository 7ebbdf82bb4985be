package llrp

import (
	"testing"

	"tagwatch/internal/epc"
)

// FuzzDecodeFrame exercises the whole decode surface with arbitrary bytes:
// no decoder may panic, an ROSpec the emulator accepts must compile to
// Select commands, and any frame that round-trips must re-encode to a
// parseable frame.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(Message{Type: MsgKeepalive, ID: 1}.EncodeFrame())
	f.Add(NewAddROSpec(7, makeROSpec()).EncodeFrame())
	f.Add(NewAddROSpec(8, filterSpec(
		[2]uint8{ActionSelectUnselect, ActionSelectDoNothing},
		[2]uint8{ActionDoNothingUnselect, ActionUnselectDoNothing},
		[2]uint8{ActionUnselectSelect, ActionDoNothingSelect},
	)).EncodeFrame())
	f.Add(NewAddROSpec(9, filterSpec([2]uint8{ActionSelectUnselect, 6})).EncodeFrame())
	f.Add(NewROAccessReport(1, benchReports(3)).EncodeFrame())
	f.Add(Message{Type: MsgROAccessReport, ID: 2, Body: opSpecResultReport()}.EncodeFrame())
	s := ConnSuccess
	f.Add(NewReaderEventNotification(1, UTCTimestamp{Microseconds: 1}, &s).EncodeFrame())
	f.Add(NewGetReaderCapabilitiesResponse(1, LLRPStatus{}, Capabilities{MaxAntennas: 4}).EncodeFrame())
	f.Add([]byte{0x04, 0x3d, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// None of the typed decoders may panic on arbitrary bodies.
		DecodeROAccessReport(m)
		if spec, err := DecodeAddROSpec(m); err == nil && checkFilters(spec, 8) == nil {
			for _, ai := range spec.AISpecs {
				for _, inv := range ai.Inventories {
					for _, cmd := range inv.Commands {
						for _, flt := range cmd.Filters {
							filterToSelect(flt)
						}
					}
				}
			}
		}
		DecodeStatus(m)
		DecodeReaderEventNotification(m)
		DecodeGetReaderCapabilitiesResponse(m)
		ROSpecIDOf(m)
		// Re-encoding the header+body must parse back identically.
		m2, _, err := DecodeFrame(m.EncodeFrame())
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if m2.Type != m.Type || m2.ID != m.ID || len(m2.Body) != len(m.Body) {
			t.Fatalf("round trip mismatch: %+v vs %+v", m2, m)
		}
	})
}

// filterSpec is an ROSpec with one AISpec per pair of filter actions,
// each inventory carrying two filters.
func filterSpec(actions ...[2]uint8) ROSpec {
	spec := makeROSpec()
	spec.AISpecs = nil
	for _, pair := range actions {
		var filters []C1G2Filter
		for i, a := range pair {
			mask, _ := epc.NewBits([]byte{0xA5, byte(i)}, 16)
			filters = append(filters, C1G2Filter{
				Mask:          C1G2TagInventoryMask{MemBank: epc.BankEPC, Pointer: epc.EPCWordOffset, Mask: mask},
				UnawareAction: a,
			})
		}
		spec.AISpecs = append(spec.AISpecs, AISpec{
			AntennaIDs:  []uint16{0},
			StopTrigger: AISpecStopTrigger{Type: AIStopDuration, DurationMS: 100},
			Inventories: []InventoryParameterSpec{{ID: 1, Commands: []C1G2InventoryCommand{{Session: 1, InitialQ: 4, Filters: filters}}}},
		})
	}
	return spec
}
