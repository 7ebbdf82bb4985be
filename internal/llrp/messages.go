package llrp

import (
	"encoding/binary"
	"fmt"
)

// MessageType identifies an LLRP message (10-bit field).
type MessageType uint16

// Message types (LLRP 1.0.1 §14).
const (
	MsgGetReaderCapabilities         MessageType = 1
	MsgSetReaderConfig               MessageType = 3
	MsgCloseConnectionResponse       MessageType = 4
	MsgGetReaderCapabilitiesResponse MessageType = 11
	MsgSetReaderConfigResponse       MessageType = 13
	MsgCloseConnection               MessageType = 14
	MsgAddROSpec                     MessageType = 20
	MsgDeleteROSpec                  MessageType = 21
	MsgStartROSpec                   MessageType = 22
	MsgStopROSpec                    MessageType = 23
	MsgEnableROSpec                  MessageType = 24
	MsgDisableROSpec                 MessageType = 25
	MsgAddROSpecResponse             MessageType = 30
	MsgDeleteROSpecResponse          MessageType = 31
	MsgStartROSpecResponse           MessageType = 32
	MsgStopROSpecResponse            MessageType = 33
	MsgEnableROSpecResponse          MessageType = 34
	MsgDisableROSpecResponse         MessageType = 35
	MsgROAccessReport                MessageType = 61
	MsgKeepalive                     MessageType = 62
	MsgReaderEventNotification       MessageType = 63
	MsgKeepaliveAck                  MessageType = 72
	MsgErrorMessage                  MessageType = 100
)

// protocolVersion is LLRP version 1 (the 3-bit Ver field).
const protocolVersion = 1

// headerSize is the LLRP message header length in bytes.
const headerSize = 10

// maxFrameLen caps one LLRP frame. The spec puts no ceiling on message
// length, but a decoded length field is attacker input the moment the
// peer is hostile or the link corrupts: every frame reader in this
// package checks against this cap before allocating.
const maxFrameLen = 64 << 20

// Message is one framed LLRP message: a typed header plus the raw encoded
// body. Typed accessors decode the body on demand (lazy, in the gopacket
// style), and constructors encode typed payloads.
type Message struct {
	Type MessageType
	ID   uint32
	Body []byte
}

// EncodeFrame renders the complete wire frame (header + body).
func (m Message) EncodeFrame() []byte {
	out := make([]byte, headerSize+len(m.Body))
	binary.BigEndian.PutUint16(out, uint16(protocolVersion)<<10|uint16(m.Type)&0x03FF)
	binary.BigEndian.PutUint32(out[2:], uint32(headerSize+len(m.Body)))
	binary.BigEndian.PutUint32(out[6:], m.ID)
	copy(out[headerSize:], m.Body)
	return out
}

// DecodeFrame parses one complete frame. It returns the message and the
// number of bytes consumed; a short buffer returns ErrTruncated.
func DecodeFrame(b []byte) (Message, int, error) {
	if len(b) < headerSize {
		return Message{}, 0, fmt.Errorf("%w: message header", ErrTruncated)
	}
	verType := binary.BigEndian.Uint16(b)
	if ver := verType >> 10 & 0x7; ver != protocolVersion {
		return Message{}, 0, fmt.Errorf("llrp: unsupported protocol version %d", ver)
	}
	length := int(binary.BigEndian.Uint32(b[2:]))
	if length < headerSize {
		return Message{}, 0, fmt.Errorf("llrp: invalid message length %d", length)
	}
	if len(b) < length {
		return Message{}, 0, fmt.Errorf("%w: message body (%d of %d bytes)", ErrTruncated, len(b), length)
	}
	return Message{
		Type: MessageType(verType & 0x03FF),
		ID:   binary.BigEndian.Uint32(b[6:]),
		Body: b[headerSize:length],
	}, length, nil
}

// ---- Request constructors (client side) ----

// NewAddROSpec builds an ADD_ROSPEC message.
func NewAddROSpec(id uint32, spec ROSpec) Message {
	w := NewWriter(256)
	spec.encode(w)
	return Message{Type: MsgAddROSpec, ID: id, Body: w.Bytes()}
}

// NewROSpecOp builds the single-ROSpecID operations: ENABLE, START, STOP,
// DELETE, DISABLE.
func NewROSpecOp(typ MessageType, id, rospecID uint32) Message {
	w := NewWriter(4)
	w.U32(rospecID)
	return Message{Type: typ, ID: id, Body: w.Bytes()}
}

// ROSpecIDOf decodes the body of a single-ROSpecID operation.
func ROSpecIDOf(m Message) (uint32, error) {
	r := NewReader(m.Body)
	v := r.U32()
	return v, r.Err()
}

// DecodeAddROSpec extracts the ROSpec of an ADD_ROSPEC message.
func DecodeAddROSpec(m Message) (ROSpec, error) {
	r := NewReader(m.Body)
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		if h.typ == ParamROSpec {
			return decodeROSpec(h.body)
		}
	}
	if err := r.Err(); err != nil {
		return ROSpec{}, err
	}
	return ROSpec{}, fmt.Errorf("llrp: ADD_ROSPEC carries no ROSpec parameter")
}

// NewKeepalive builds a KEEPALIVE message (reader → client).
func NewKeepalive(id uint32) Message { return Message{Type: MsgKeepalive, ID: id} }

// NewKeepaliveAck builds the client's KEEPALIVE_ACK.
func NewKeepaliveAck(id uint32) Message { return Message{Type: MsgKeepaliveAck, ID: id} }

// NewSetReaderConfig builds a SET_READER_CONFIG carrying an optional
// KeepaliveSpec.
func NewSetReaderConfig(id uint32, keepalive *KeepaliveSpec) Message {
	w := NewWriter(16)
	w.U8(0) // ResetToFactoryDefault = false
	if keepalive != nil {
		keepalive.encode(w)
	}
	return Message{Type: MsgSetReaderConfig, ID: id, Body: w.Bytes()}
}

// DecodeSetReaderConfig extracts the KeepaliveSpec of a SET_READER_CONFIG
// (nil when absent).
func DecodeSetReaderConfig(m Message) (*KeepaliveSpec, error) {
	r := NewReader(m.Body)
	r.U8() // reset bit
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		if h.typ == ParamKeepaliveSpec {
			k, err := decodeKeepaliveSpec(h.body)
			if err != nil {
				return nil, err
			}
			return &k, nil
		}
	}
	return nil, r.Err()
}

// NewCloseConnection builds a CLOSE_CONNECTION request.
func NewCloseConnection(id uint32) Message { return Message{Type: MsgCloseConnection, ID: id} }

// ---- Response constructors (reader side) ----

// NewStatusResponse builds a response message carrying only an LLRPStatus
// (the shape of all the *_RESPONSE messages Tagwatch consumes).
func NewStatusResponse(typ MessageType, id uint32, status LLRPStatus) Message {
	w := NewWriter(32)
	status.encode(w)
	return Message{Type: typ, ID: id, Body: w.Bytes()}
}

// DecodeStatus extracts the LLRPStatus from a response message.
func DecodeStatus(m Message) (LLRPStatus, error) {
	r := NewReader(m.Body)
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		if h.typ == ParamLLRPStatus {
			return decodeLLRPStatus(h.body)
		}
	}
	if err := r.Err(); err != nil {
		return LLRPStatus{}, err
	}
	return LLRPStatus{}, fmt.Errorf("llrp: message %d carries no LLRPStatus", m.Type)
}

// NewROAccessReport builds an RO_ACCESS_REPORT carrying tag reports.
func NewROAccessReport(id uint32, reports []TagReportData) Message {
	w := NewWriter(64 * (1 + len(reports)))
	for _, t := range reports {
		t.encode(w)
	}
	return Message{Type: MsgROAccessReport, ID: id, Body: w.Bytes()}
}

// DecodeROAccessReport extracts the tag reports of an RO_ACCESS_REPORT.
func DecodeROAccessReport(m Message) ([]TagReportData, error) {
	r := NewReader(m.Body)
	var out []TagReportData
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		if h.typ == ParamTagReportData {
			t, err := decodeTagReportData(h.body)
			if err != nil {
				return out, err
			}
			out = append(out, t)
		}
	}
	return out, r.Err()
}

// ConnectionAttemptStatus is the outcome field of a ConnectionAttemptEvent.
type ConnectionAttemptStatus uint16

// Connection attempt outcomes.
const (
	ConnSuccess              ConnectionAttemptStatus = 0
	ConnFailedReaderInUse    ConnectionAttemptStatus = 1
	ConnFailedAnotherAttempt ConnectionAttemptStatus = 4
)

// NewReaderEventNotification builds a READER_EVENT_NOTIFICATION carrying a
// timestamp and (optionally) a connection-attempt event.
func NewReaderEventNotification(id uint32, ts UTCTimestamp, conn *ConnectionAttemptStatus) Message {
	w := NewWriter(48)
	off := w.tlv(ParamReaderEventNotificationData)
	ts.encode(w)
	if conn != nil {
		co := w.tlv(ParamConnectionAttemptEvent)
		w.U16(uint16(*conn))
		w.closeTLV(co)
	}
	w.closeTLV(off)
	return Message{Type: MsgReaderEventNotification, ID: id, Body: w.Bytes()}
}

// ReaderEvent is the decoded content of a READER_EVENT_NOTIFICATION.
type ReaderEvent struct {
	Timestamp   UTCTimestamp
	ConnAttempt *ConnectionAttemptStatus
	ROSpec      *ROSpecEvent
}

// NewROSpecEventNotification builds a READER_EVENT_NOTIFICATION carrying
// an ROSpec start/end event.
func NewROSpecEventNotification(id uint32, ts UTCTimestamp, ev ROSpecEvent) Message {
	w := NewWriter(48)
	off := w.tlv(ParamReaderEventNotificationData)
	ts.encode(w)
	ev.encode(w)
	w.closeTLV(off)
	return Message{Type: MsgReaderEventNotification, ID: id, Body: w.Bytes()}
}

// NewGetReaderCapabilitiesResponse builds the capabilities response.
func NewGetReaderCapabilitiesResponse(id uint32, status LLRPStatus, caps Capabilities) Message {
	w := NewWriter(64)
	status.encode(w)
	caps.encode(w)
	return Message{Type: MsgGetReaderCapabilitiesResponse, ID: id, Body: w.Bytes()}
}

// DecodeGetReaderCapabilitiesResponse extracts the capabilities.
func DecodeGetReaderCapabilitiesResponse(m Message) (Capabilities, error) {
	return decodeCapabilities(m.Body)
}

// DecodeReaderEventNotification parses a READER_EVENT_NOTIFICATION.
func DecodeReaderEventNotification(m Message) (ReaderEvent, error) {
	var ev ReaderEvent
	r := NewReader(m.Body)
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		if h.typ != ParamReaderEventNotificationData {
			continue
		}
		inner := NewReader(h.body)
		for inner.Remaining() > 0 {
			ih, ok := inner.nextParam()
			if !ok {
				break
			}
			pr := NewReader(ih.body)
			switch ih.typ {
			case ParamUTCTimestamp:
				ev.Timestamp = UTCTimestamp{Microseconds: pr.U64()}
			case ParamConnectionAttemptEvent:
				s := ConnectionAttemptStatus(pr.U16())
				ev.ConnAttempt = &s
			case ParamROSpecEvent:
				re, err := decodeROSpecEvent(ih.body)
				if err != nil {
					return ev, err
				}
				ev.ROSpec = &re
			}
			if err := pr.Err(); err != nil {
				return ev, err
			}
		}
		if err := inner.Err(); err != nil {
			return ev, err
		}
	}
	return ev, r.Err()
}

// responseTypeFor maps a request type to its response type; ok is false
// for one-way messages.
func responseTypeFor(t MessageType) (MessageType, bool) {
	switch t {
	case MsgGetReaderCapabilities:
		return MsgGetReaderCapabilitiesResponse, true
	case MsgSetReaderConfig:
		return MsgSetReaderConfigResponse, true
	case MsgAddROSpec:
		return MsgAddROSpecResponse, true
	case MsgDeleteROSpec:
		return MsgDeleteROSpecResponse, true
	case MsgStartROSpec:
		return MsgStartROSpecResponse, true
	case MsgStopROSpec:
		return MsgStopROSpecResponse, true
	case MsgEnableROSpec:
		return MsgEnableROSpecResponse, true
	case MsgDisableROSpec:
		return MsgDisableROSpecResponse, true
	case MsgCloseConnection:
		return MsgCloseConnectionResponse, true
	default:
		return 0, false
	}
}
