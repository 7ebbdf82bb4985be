package llrp

import (
	"fmt"
	"strings"
)

// Name returns the LLRP name of a message type.
func (t MessageType) Name() string {
	switch t {
	case MsgGetReaderCapabilities:
		return "GET_READER_CAPABILITIES"
	case MsgGetReaderCapabilitiesResponse:
		return "GET_READER_CAPABILITIES_RESPONSE"
	case MsgSetReaderConfig:
		return "SET_READER_CONFIG"
	case MsgSetReaderConfigResponse:
		return "SET_READER_CONFIG_RESPONSE"
	case MsgCloseConnection:
		return "CLOSE_CONNECTION"
	case MsgCloseConnectionResponse:
		return "CLOSE_CONNECTION_RESPONSE"
	case MsgAddROSpec:
		return "ADD_ROSPEC"
	case MsgAddROSpecResponse:
		return "ADD_ROSPEC_RESPONSE"
	case MsgDeleteROSpec:
		return "DELETE_ROSPEC"
	case MsgDeleteROSpecResponse:
		return "DELETE_ROSPEC_RESPONSE"
	case MsgStartROSpec:
		return "START_ROSPEC"
	case MsgStartROSpecResponse:
		return "START_ROSPEC_RESPONSE"
	case MsgStopROSpec:
		return "STOP_ROSPEC"
	case MsgStopROSpecResponse:
		return "STOP_ROSPEC_RESPONSE"
	case MsgEnableROSpec:
		return "ENABLE_ROSPEC"
	case MsgEnableROSpecResponse:
		return "ENABLE_ROSPEC_RESPONSE"
	case MsgDisableROSpec:
		return "DISABLE_ROSPEC"
	case MsgDisableROSpecResponse:
		return "DISABLE_ROSPEC_RESPONSE"
	case MsgROAccessReport:
		return "RO_ACCESS_REPORT"
	case MsgKeepalive:
		return "KEEPALIVE"
	case MsgKeepaliveAck:
		return "KEEPALIVE_ACK"
	case MsgReaderEventNotification:
		return "READER_EVENT_NOTIFICATION"
	case MsgErrorMessage:
		return "ERROR_MESSAGE"
	default:
		return fmt.Sprintf("MESSAGE_TYPE_%d", uint16(t))
	}
}

// Summarize renders a one-line human-readable description of a message —
// what an LLRP wire sniffer prints per frame.
func (m Message) Summarize() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s id=%d", m.Type.Name(), m.ID)
	switch m.Type {
	case MsgROAccessReport:
		reports, err := DecodeROAccessReport(m)
		if err != nil {
			fmt.Fprintf(&b, " <decode error: %v>", err)
			break
		}
		fmt.Fprintf(&b, " tags=%d", len(reports))
		max := len(reports)
		const show = 3
		if max > show {
			max = show
		}
		for _, r := range reports[:max] {
			fmt.Fprintf(&b, " [%s ant=%d rssi=%d", r.EPC, r.AntennaID, r.PeakRSSIdBm)
			if r.HasPhase {
				fmt.Fprintf(&b, " φ=%.2f", r.PhaseRadians())
			}
			b.WriteString("]")
		}
		if len(reports) > show {
			fmt.Fprintf(&b, " …+%d", len(reports)-show)
		}
	case MsgAddROSpec:
		if spec, err := DecodeAddROSpec(m); err == nil {
			fmt.Fprintf(&b, " rospec=%d aispecs=%d", spec.ID, len(spec.AISpecs))
			for _, ai := range spec.AISpecs {
				for _, inv := range ai.Inventories {
					for _, cmd := range inv.Commands {
						for _, f := range cmd.Filters {
							fmt.Fprintf(&b, " filter=%s@%d/%db",
								f.Mask.Mask, f.Mask.Pointer, f.Mask.Mask.Bits())
						}
					}
				}
			}
		}
	case MsgEnableROSpec, MsgStartROSpec, MsgStopROSpec, MsgDeleteROSpec, MsgDisableROSpec:
		if id, err := ROSpecIDOf(m); err == nil {
			fmt.Fprintf(&b, " target=%d", id)
		}
	case MsgReaderEventNotification:
		if ev, err := DecodeReaderEventNotification(m); err == nil {
			if ev.ConnAttempt != nil {
				fmt.Fprintf(&b, " connection=%d", *ev.ConnAttempt)
			}
			if ev.ROSpec != nil {
				kind := "started"
				if ev.ROSpec.Type == ROSpecEnded {
					kind = "ended"
				}
				fmt.Fprintf(&b, " rospec=%d %s", ev.ROSpec.ROSpecID, kind)
			}
		}
	default:
		if st, err := DecodeStatus(m); err == nil {
			if st.OK() {
				b.WriteString(" status=OK")
			} else {
				fmt.Fprintf(&b, " status=%d %q", st.Code, st.Description)
			}
		}
	}
	return b.String()
}
