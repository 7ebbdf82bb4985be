package llrp

import (
	"fmt"
	"time"

	"tagwatch/internal/epc"
)

// ParamType identifies an LLRP parameter.
type ParamType uint16

// TLV parameter types (LLRP 1.0.1 §17) used by this implementation.
const (
	ParamUTCTimestamp                             ParamType = 128
	ParamGeneralDeviceCapabilities                ParamType = 137
	ParamROSpec                                   ParamType = 177
	ParamROBoundarySpec                           ParamType = 178
	ParamROSpecStartTrigger                       ParamType = 179
	ParamROSpecStopTrigger                        ParamType = 182
	ParamAISpec                                   ParamType = 183
	ParamAISpecStopTrigger                        ParamType = 184
	ParamInventoryParameterSpec                   ParamType = 186
	ParamROReportSpec                             ParamType = 237
	ParamTagReportContentSelector                 ParamType = 238
	ParamTagReportData                            ParamType = 240
	ParamEPCData                                  ParamType = 241
	ParamReaderEventNotificationData              ParamType = 246
	ParamROSpecEvent                              ParamType = 249
	ParamConnectionAttemptEvent                   ParamType = 256
	ParamLLRPStatus                               ParamType = 287
	ParamKeepaliveSpec                            ParamType = 220
	ParamC1G2LLRPCapabilities                     ParamType = 327
	ParamC1G2InventoryCommand                     ParamType = 330
	ParamC1G2Filter                               ParamType = 331
	ParamC1G2TagInventoryMask                     ParamType = 332
	ParamC1G2TagInventoryStateUnawareFilterAction ParamType = 334
	ParamC1G2RFControl                            ParamType = 335
	ParamC1G2SingulationControl                   ParamType = 336
	ParamCustom                                   ParamType = 1023
)

// TV parameter types (1-byte header).
const (
	ParamAntennaID             ParamType = 1
	ParamFirstSeenTimestampUTC ParamType = 2
	ParamLastSeenTimestampUTC  ParamType = 4
	ParamPeakRSSI              ParamType = 6
	ParamChannelIndex          ParamType = 7
	ParamTagSeenCount          ParamType = 8
	ParamROSpecID              ParamType = 9
	ParamEPC96                 ParamType = 13
)

// tvSizes maps TV parameter types to their fixed value sizes in bytes.
var tvSizes = map[ParamType]int{
	ParamAntennaID:             2,
	ParamFirstSeenTimestampUTC: 8,
	ParamLastSeenTimestampUTC:  8,
	ParamPeakRSSI:              1,
	ParamChannelIndex:          2,
	ParamTagSeenCount:          2,
	ParamROSpecID:              4,
	ParamEPC96:                 12,
}

// ImpinJ custom-parameter identity. The ImpinJ PEN (private enterprise
// number) is 25882; the RF phase subtype follows the Octane LTK extension
// that reports the backscatter phase angle as a 16-bit fraction of 2π.
const (
	ImpinjPEN                 uint32 = 25882
	ImpinjSubtypeRFPhaseAngle uint32 = 1005
)

// StatusCode is an LLRPStatus code.
type StatusCode uint16

// Status codes (subset).
const (
	StatusSuccess     StatusCode = 0
	StatusParamError  StatusCode = 200
	StatusFieldError  StatusCode = 300
	StatusDeviceError StatusCode = 401
	StatusUnsupported StatusCode = 409
)

// LLRPStatus reports the outcome of a request.
type LLRPStatus struct {
	Code        StatusCode
	Description string
}

// OK reports whether the status is success.
func (s LLRPStatus) OK() bool { return s.Code == StatusSuccess }

// Error makes a failed status usable as an error value.
func (s LLRPStatus) Error() string {
	return fmt.Sprintf("llrp: status %d: %s", s.Code, s.Description)
}

func (s LLRPStatus) encode(w *Writer) {
	off := w.tlv(ParamLLRPStatus)
	w.U16(uint16(s.Code))
	desc := []byte(s.Description)
	w.U16(uint16(len(desc)))
	w.Raw(desc)
	w.closeTLV(off)
}

func decodeLLRPStatus(body []byte) (LLRPStatus, error) {
	r := NewReader(body)
	var s LLRPStatus
	s.Code = StatusCode(r.U16())
	n := int(r.U16())
	s.Description = string(r.Raw(n))
	return s, r.Err()
}

// UTCTimestamp carries microseconds since the Unix epoch.
type UTCTimestamp struct {
	Microseconds uint64
}

// Time converts the timestamp to a time.Time.
func (u UTCTimestamp) Time() time.Time {
	return time.UnixMicro(int64(u.Microseconds)).UTC()
}

func (u UTCTimestamp) encode(w *Writer) {
	off := w.tlv(ParamUTCTimestamp)
	w.U64(u.Microseconds)
	w.closeTLV(off)
}

// ROSpecEventType distinguishes start from end notifications.
type ROSpecEventType uint8

// ROSpec event types.
const (
	ROSpecStarted ROSpecEventType = 0
	ROSpecEnded   ROSpecEventType = 1
)

// ROSpecEvent notifies the client that an ROSpec started or ended — the
// end event is how a client learns a duration-triggered ROSpec finished
// without polling.
type ROSpecEvent struct {
	Type       ROSpecEventType
	ROSpecID   uint32
	Preempting uint32
}

func (e ROSpecEvent) encode(w *Writer) {
	off := w.tlv(ParamROSpecEvent)
	w.U8(uint8(e.Type))
	w.U32(e.ROSpecID)
	w.U32(e.Preempting)
	w.closeTLV(off)
}

func decodeROSpecEvent(body []byte) (ROSpecEvent, error) {
	r := NewReader(body)
	var e ROSpecEvent
	e.Type = ROSpecEventType(r.U8())
	e.ROSpecID = r.U32()
	e.Preempting = r.U32()
	return e, r.Err()
}

// Capabilities summarises what a reader reports in response to
// GET_READER_CAPABILITIES: the subset Tagwatch needs.
type Capabilities struct {
	// MaxAntennas is the number of antenna ports.
	MaxAntennas uint16
	// ManufacturerPEN is the device manufacturer's private enterprise
	// number (ImpinJ: 25882).
	ManufacturerPEN uint32
	// Model is the device model number.
	Model uint32
	// MaxSelectFiltersPerQuery bounds C1G2Filters per inventory command.
	MaxSelectFiltersPerQuery uint16
	// SupportsPhaseReporting reports the ImpinJ RF-phase extension.
	SupportsPhaseReporting bool
}

func (c Capabilities) encode(w *Writer) {
	off := w.tlv(ParamGeneralDeviceCapabilities)
	w.U16(c.MaxAntennas)
	flags := uint16(0)
	if c.SupportsPhaseReporting {
		flags |= 1 << 15
	}
	w.U16(flags)
	w.U32(c.ManufacturerPEN)
	w.U32(c.Model)
	w.closeTLV(off)
	co := w.tlv(ParamC1G2LLRPCapabilities)
	w.U8(0)
	w.U16(c.MaxSelectFiltersPerQuery)
	w.closeTLV(co)
}

// decodeCapabilities walks the response body's parameters.
func decodeCapabilities(body []byte) (Capabilities, error) {
	var c Capabilities
	r := NewReader(body)
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		pr := NewReader(h.body)
		switch h.typ {
		case ParamGeneralDeviceCapabilities:
			c.MaxAntennas = pr.U16()
			flags := pr.U16()
			c.SupportsPhaseReporting = flags&(1<<15) != 0
			c.ManufacturerPEN = pr.U32()
			c.Model = pr.U32()
		case ParamC1G2LLRPCapabilities:
			pr.U8()
			c.MaxSelectFiltersPerQuery = pr.U16()
		}
		if err := pr.Err(); err != nil {
			return c, err
		}
	}
	return c, r.Err()
}

// ROSpecState is the lifecycle state of an ROSpec on the reader.
type ROSpecState uint8

// ROSpec states.
const (
	ROSpecDisabled ROSpecState = 0
	ROSpecInactive ROSpecState = 1
	ROSpecActive   ROSpecState = 2
)

// ROSpecStartTriggerType selects how an ROSpec starts.
type ROSpecStartTriggerType uint8

// Start trigger types.
const (
	StartTriggerNull      ROSpecStartTriggerType = 0
	StartTriggerImmediate ROSpecStartTriggerType = 1
	StartTriggerPeriodic  ROSpecStartTriggerType = 2
)

// ROSpecStopTriggerType selects how an ROSpec stops.
type ROSpecStopTriggerType uint8

// Stop trigger types.
const (
	StopTriggerNull     ROSpecStopTriggerType = 0
	StopTriggerDuration ROSpecStopTriggerType = 1
)

// ROBoundarySpec bounds an ROSpec's execution.
type ROBoundarySpec struct {
	StartTrigger ROSpecStartTriggerType
	StopTrigger  ROSpecStopTriggerType
	DurationMS   uint32 // for StopTriggerDuration
}

func (b ROBoundarySpec) encode(w *Writer) {
	off := w.tlv(ParamROBoundarySpec)
	so := w.tlv(ParamROSpecStartTrigger)
	w.U8(uint8(b.StartTrigger))
	w.closeTLV(so)
	eo := w.tlv(ParamROSpecStopTrigger)
	w.U8(uint8(b.StopTrigger))
	w.U32(b.DurationMS)
	w.closeTLV(eo)
	w.closeTLV(off)
}

func decodeROBoundarySpec(body []byte) (ROBoundarySpec, error) {
	r := NewReader(body)
	var b ROBoundarySpec
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		pr := NewReader(h.body)
		switch h.typ {
		case ParamROSpecStartTrigger:
			b.StartTrigger = ROSpecStartTriggerType(pr.U8())
		case ParamROSpecStopTrigger:
			b.StopTrigger = ROSpecStopTriggerType(pr.U8())
			b.DurationMS = pr.U32()
		}
		if err := pr.Err(); err != nil {
			return b, err
		}
	}
	return b, r.Err()
}

// AISpecStopTriggerType selects how an AISpec stops.
type AISpecStopTriggerType uint8

// AISpec stop trigger types.
const (
	AIStopNull     AISpecStopTriggerType = 0
	AIStopDuration AISpecStopTriggerType = 1
)

// AISpecStopTrigger bounds one AISpec.
type AISpecStopTrigger struct {
	Type       AISpecStopTriggerType
	DurationMS uint32
}

// C1G2TagInventoryMask is the (MB, Pointer, Mask) triple of a Select — the
// paper's bitmask S(m, p, l).
type C1G2TagInventoryMask struct {
	MemBank epc.MemoryBank
	Pointer uint16
	Mask    epc.EPC
}

func (m C1G2TagInventoryMask) encode(w *Writer) {
	off := w.tlv(ParamC1G2TagInventoryMask)
	w.U8(uint8(m.MemBank) << 6)
	w.U16(m.Pointer)
	w.U16(uint16(m.Mask.Bits()))
	w.Raw(m.Mask.Bytes())
	w.closeTLV(off)
}

func decodeC1G2TagInventoryMask(body []byte) (C1G2TagInventoryMask, error) {
	r := NewReader(body)
	var m C1G2TagInventoryMask
	m.MemBank = epc.MemoryBank(r.U8() >> 6)
	m.Pointer = r.U16()
	bits := int(r.U16())
	raw := r.Raw((bits + 7) / 8)
	if err := r.Err(); err != nil {
		return m, err
	}
	mask, err := epc.NewBits(raw, bits)
	if err != nil {
		return m, fmt.Errorf("llrp: inventory mask: %w", err)
	}
	m.Mask = mask
	return m, nil
}

// C1G2Filter is one LLRP filter — it compiles to one Gen2 Select command.
type C1G2Filter struct {
	Mask C1G2TagInventoryMask
	// UnawareAction is the state-unaware filter action, 0–5 (the
	// Action… constants): what the Select does to the SL flag of matching
	// and of non-matching tags. A reader applies an inventory's filters in
	// order, so the actions decide whether its masks intersect (0, then 2)
	// or unite (0, then 1).
	UnawareAction uint8
}

// The state-unaware filter actions, LLRP's names: the effect on matching
// tags, then on non-matching ones. Select asserts SL, Unselect deasserts
// it.
const (
	ActionSelectUnselect    uint8 = 0
	ActionSelectDoNothing   uint8 = 1
	ActionDoNothingUnselect uint8 = 2
	ActionUnselectDoNothing uint8 = 3
	ActionUnselectSelect    uint8 = 4
	ActionDoNothingSelect   uint8 = 5
)

func (f C1G2Filter) encode(w *Writer) {
	off := w.tlv(ParamC1G2Filter)
	w.U8(1 << 6) // T: state-unaware
	f.Mask.encode(w)
	ao := w.tlv(ParamC1G2TagInventoryStateUnawareFilterAction)
	w.U8(f.UnawareAction)
	w.closeTLV(ao)
	w.closeTLV(off)
}

func decodeC1G2Filter(body []byte) (C1G2Filter, error) {
	r := NewReader(body)
	var f C1G2Filter
	r.U8() // T bit
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		switch h.typ {
		case ParamC1G2TagInventoryMask:
			m, err := decodeC1G2TagInventoryMask(h.body)
			if err != nil {
				return f, err
			}
			f.Mask = m
		case ParamC1G2TagInventoryStateUnawareFilterAction:
			pr := NewReader(h.body)
			f.UnawareAction = pr.U8()
			if err := pr.Err(); err != nil {
				return f, err
			}
		}
	}
	return f, r.Err()
}

// C1G2InventoryCommand wraps the filters and singulation parameters of one
// inventory.
type C1G2InventoryCommand struct {
	Filters []C1G2Filter
	// Session is carried in C1G2SingulationControl (we fold the session
	// field in directly for simplicity of the emulator).
	Session uint8
	// InitialQ rides in C1G2SingulationControl's slot field.
	InitialQ uint8
}

func (c C1G2InventoryCommand) encode(w *Writer) {
	off := w.tlv(ParamC1G2InventoryCommand)
	w.U8(0) // TagInventoryStateAware = false
	for _, f := range c.Filters {
		f.encode(w)
	}
	so := w.tlv(ParamC1G2SingulationControl)
	w.U8(c.Session << 6)
	w.U16(uint16(c.InitialQ)) // tag population hint repurposed as initial Q
	w.U32(0)                  // tag transit time
	w.closeTLV(so)
	w.closeTLV(off)
}

func decodeC1G2InventoryCommand(body []byte) (C1G2InventoryCommand, error) {
	r := NewReader(body)
	var c C1G2InventoryCommand
	r.U8()
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		switch h.typ {
		case ParamC1G2Filter:
			f, err := decodeC1G2Filter(h.body)
			if err != nil {
				return c, err
			}
			c.Filters = append(c.Filters, f)
		case ParamC1G2SingulationControl:
			pr := NewReader(h.body)
			c.Session = pr.U8() >> 6
			c.InitialQ = uint8(pr.U16())
			if err := pr.Err(); err != nil {
				return c, err
			}
		}
	}
	return c, r.Err()
}

// InventoryParameterSpec names one air-protocol inventory configuration.
type InventoryParameterSpec struct {
	ID       uint16
	Commands []C1G2InventoryCommand
}

func (s InventoryParameterSpec) encode(w *Writer) {
	off := w.tlv(ParamInventoryParameterSpec)
	w.U16(s.ID)
	w.U8(1) // protocol: EPCGlobal C1G2
	for _, c := range s.Commands {
		c.encode(w)
	}
	w.closeTLV(off)
}

func decodeInventoryParameterSpec(body []byte) (InventoryParameterSpec, error) {
	r := NewReader(body)
	var s InventoryParameterSpec
	s.ID = r.U16()
	r.U8() // protocol
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		if h.typ == ParamC1G2InventoryCommand {
			c, err := decodeC1G2InventoryCommand(h.body)
			if err != nil {
				return s, err
			}
			s.Commands = append(s.Commands, c)
		}
	}
	return s, r.Err()
}

// AISpec is one antenna-inventory step of an ROSpec. Tagwatch configures
// "multiple bitmasks by adding multiple AISpecs" (§6): each AISpec carries
// one C1G2Filter and runs as its own inventory round.
type AISpec struct {
	AntennaIDs  []uint16 // 0 means "all antennas"
	StopTrigger AISpecStopTrigger
	Inventories []InventoryParameterSpec
}

func (a AISpec) encode(w *Writer) {
	off := w.tlv(ParamAISpec)
	w.U16(uint16(len(a.AntennaIDs)))
	for _, id := range a.AntennaIDs {
		w.U16(id)
	}
	so := w.tlv(ParamAISpecStopTrigger)
	w.U8(uint8(a.StopTrigger.Type))
	w.U32(a.StopTrigger.DurationMS)
	w.closeTLV(so)
	for _, inv := range a.Inventories {
		inv.encode(w)
	}
	w.closeTLV(off)
}

func decodeAISpec(body []byte) (AISpec, error) {
	r := NewReader(body)
	var a AISpec
	n := int(r.U16())
	for i := 0; i < n; i++ {
		a.AntennaIDs = append(a.AntennaIDs, r.U16())
	}
	if err := r.Err(); err != nil {
		return a, err
	}
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		switch h.typ {
		case ParamAISpecStopTrigger:
			pr := NewReader(h.body)
			a.StopTrigger.Type = AISpecStopTriggerType(pr.U8())
			a.StopTrigger.DurationMS = pr.U32()
			if err := pr.Err(); err != nil {
				return a, err
			}
		case ParamInventoryParameterSpec:
			s, err := decodeInventoryParameterSpec(h.body)
			if err != nil {
				return a, err
			}
			a.Inventories = append(a.Inventories, s)
		}
	}
	return a, r.Err()
}

// KeepaliveSpec configures the reader's periodic KEEPALIVE messages.
type KeepaliveSpec struct {
	// Periodic enables keepalives every Period; false disables them.
	Periodic bool
	Period   time.Duration
}

func (k KeepaliveSpec) encode(w *Writer) {
	off := w.tlv(ParamKeepaliveSpec)
	if k.Periodic {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U32(uint32(k.Period / time.Millisecond))
	w.closeTLV(off)
}

func decodeKeepaliveSpec(body []byte) (KeepaliveSpec, error) {
	r := NewReader(body)
	var k KeepaliveSpec
	k.Periodic = r.U8() == 1
	k.Period = time.Duration(r.U32()) * time.Millisecond
	return k, r.Err()
}

// ROReportTrigger selects when the reader flushes accumulated tag
// reports.
type ROReportTrigger uint8

// Report triggers.
const (
	// ReportNone keeps the reader's default (one report per inventory
	// round in this emulator).
	ReportNone ROReportTrigger = 0
	// ReportEveryN flushes whenever N tag reports have accumulated (and at
	// the end of the ROSpec).
	ReportEveryN ROReportTrigger = 1
)

// ROReportSpec controls report batching — LLRP's knob for trading report
// latency against message overhead.
type ROReportSpec struct {
	Trigger ROReportTrigger
	N       uint16
}

func (r ROReportSpec) encode(w *Writer) {
	off := w.tlv(ParamROReportSpec)
	w.U8(uint8(r.Trigger))
	w.U16(r.N)
	w.closeTLV(off)
}

// ROSpec is a complete reader operation: boundary triggers plus an ordered
// list of AISpecs the reader cycles through.
type ROSpec struct {
	ID       uint32
	Priority uint8
	State    ROSpecState
	Boundary ROBoundarySpec
	AISpecs  []AISpec
	// Report, when non-nil, overrides the reader's default report
	// batching.
	Report *ROReportSpec
}

func (s ROSpec) encode(w *Writer) {
	off := w.tlv(ParamROSpec)
	w.U32(s.ID)
	w.U8(s.Priority)
	w.U8(uint8(s.State))
	s.Boundary.encode(w)
	for _, a := range s.AISpecs {
		a.encode(w)
	}
	if s.Report != nil {
		s.Report.encode(w)
	}
	w.closeTLV(off)
}

func decodeROSpec(body []byte) (ROSpec, error) {
	r := NewReader(body)
	var s ROSpec
	s.ID = r.U32()
	s.Priority = r.U8()
	s.State = ROSpecState(r.U8())
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		switch h.typ {
		case ParamROBoundarySpec:
			b, err := decodeROBoundarySpec(h.body)
			if err != nil {
				return s, err
			}
			s.Boundary = b
		case ParamAISpec:
			a, err := decodeAISpec(h.body)
			if err != nil {
				return s, err
			}
			s.AISpecs = append(s.AISpecs, a)
		case ParamROReportSpec:
			pr := NewReader(h.body)
			rs := ROReportSpec{Trigger: ROReportTrigger(pr.U8()), N: pr.U16()}
			if err := pr.Err(); err != nil {
				return s, err
			}
			s.Report = &rs
		}
	}
	return s, r.Err()
}

// TagReportData is one tag observation inside an RO_ACCESS_REPORT. Fields
// mirror what the R420 reports with phase reporting enabled.
type TagReportData struct {
	EPC          epc.EPC
	ROSpecID     uint32
	AntennaID    uint16
	PeakRSSIdBm  int8
	ChannelIndex uint16
	FirstSeenUTC uint64 // microseconds
	TagSeenCount uint16
	HasPhase     bool
	PhaseAngle16 uint16 // ImpinJ: phase in units of 2π/4096 (we use /65536)
}

// PhaseRadians converts the 16-bit phase fraction to radians.
func (t TagReportData) PhaseRadians() float64 {
	return float64(t.PhaseAngle16) / 65536 * 2 * 3.141592653589793
}

// SetPhaseRadians stores a phase in radians as the 16-bit wire fraction.
func (t *TagReportData) SetPhaseRadians(rad float64) {
	const twoPi = 2 * 3.141592653589793
	frac := rad / twoPi
	frac -= float64(int(frac))
	if frac < 0 {
		frac++
	}
	t.HasPhase = true
	t.PhaseAngle16 = uint16(frac * 65536)
}

func (t TagReportData) encode(w *Writer) {
	off := w.tlv(ParamTagReportData)
	if t.EPC.Bits() == 96 {
		w.U8(0x80 | uint8(ParamEPC96))
		w.Raw(t.EPC.Bytes())
	} else {
		eo := w.tlv(ParamEPCData)
		w.U16(uint16(t.EPC.Bits()))
		w.Raw(t.EPC.Bytes())
		w.closeTLV(eo)
	}
	w.U8(0x80 | uint8(ParamROSpecID))
	w.U32(t.ROSpecID)
	w.U8(0x80 | uint8(ParamAntennaID))
	w.U16(t.AntennaID)
	w.U8(0x80 | uint8(ParamPeakRSSI))
	w.U8(uint8(t.PeakRSSIdBm))
	w.U8(0x80 | uint8(ParamChannelIndex))
	w.U16(t.ChannelIndex)
	w.U8(0x80 | uint8(ParamFirstSeenTimestampUTC))
	w.U64(t.FirstSeenUTC)
	w.U8(0x80 | uint8(ParamTagSeenCount))
	w.U16(t.TagSeenCount)
	if t.HasPhase {
		co := w.tlv(ParamCustom)
		w.U32(ImpinjPEN)
		w.U32(ImpinjSubtypeRFPhaseAngle)
		w.U16(t.PhaseAngle16)
		w.closeTLV(co)
	}
	w.closeTLV(off)
}

func decodeTagReportData(body []byte) (TagReportData, error) {
	r := NewReader(body)
	var t TagReportData
	for r.Remaining() > 0 {
		h, ok := r.nextParam()
		if !ok {
			break
		}
		pr := NewReader(h.body)
		switch h.typ {
		case ParamEPC96:
			t.EPC = epc.New(h.body)
		case ParamEPCData:
			bits := int(pr.U16())
			raw := pr.Raw((bits + 7) / 8)
			if err := pr.Err(); err != nil {
				return t, err
			}
			e, err := epc.NewBits(raw, bits)
			if err != nil {
				return t, fmt.Errorf("llrp: EPCData: %w", err)
			}
			t.EPC = e
		case ParamROSpecID:
			t.ROSpecID = pr.U32()
		case ParamAntennaID:
			t.AntennaID = pr.U16()
		case ParamPeakRSSI:
			t.PeakRSSIdBm = int8(pr.U8())
		case ParamChannelIndex:
			t.ChannelIndex = pr.U16()
		case ParamFirstSeenTimestampUTC:
			t.FirstSeenUTC = pr.U64()
		case ParamTagSeenCount:
			t.TagSeenCount = pr.U16()
		case ParamCustom:
			pen := pr.U32()
			sub := pr.U32()
			if pen == ImpinjPEN && sub == ImpinjSubtypeRFPhaseAngle {
				t.HasPhase = true
				t.PhaseAngle16 = pr.U16()
			}
		}
		if err := pr.Err(); err != nil {
			return t, err
		}
	}
	return t, r.Err()
}
