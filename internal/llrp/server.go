package llrp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tagwatch/internal/gen2"
	"tagwatch/internal/reader"
)

// ServerConfig tunes the reader emulator.
type ServerConfig struct {
	// TimeScale converts virtual reader time into wall-clock pacing: 1.0
	// emulates real time, 0 free-runs as fast as the simulator can go
	// (the default for experiments).
	TimeScale float64
	// KeepaliveEvery sends periodic KEEPALIVE messages when positive.
	KeepaliveEvery time.Duration
}

// Server is the LLRP reader emulator: the stand-in for the ImpinJ R420.
// It accepts one LLRP client at a time, executes ROSpecs against the
// embedded reader-simulator engine, and streams RO_ACCESS_REPORTs with
// ImpinJ-style phase reporting.
type Server struct {
	cfg    ServerConfig
	engine *reader.Reader
	lis    net.Listener

	mu      sync.Mutex
	rospecs map[uint32]*rospecEntry
	baseUTC time.Time

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup

	// connMu/conns track live client sockets so Close can sever them; a
	// client mid-session would otherwise keep serve() alive forever and
	// deadlock Close's wg.Wait.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// clientMu guards the single-controller rule: LLRP readers accept one
	// controlling client; later connections are refused with
	// ConnFailedReaderInUse.
	clientMu  sync.Mutex
	hasClient bool

	// engineMu serialises touches of the single-threaded simulator engine:
	// the ROSpec runner advances the virtual clock while serve goroutines
	// (including refused second clients) stamp event timestamps from it.
	engineMu sync.Mutex
}

type rospecEntry struct {
	spec    ROSpec
	enabled bool
	stop    chan struct{} // nilled when a stopper claims the close
	done    chan struct{} // non-nil while the runner is alive; runner closes it
}

// NewServer builds a reader emulator over a simulator engine.
func NewServer(engine *reader.Reader, cfg ServerConfig) *Server {
	return &Server{
		cfg:     cfg,
		engine:  engine,
		rospecs: make(map[uint32]*rospecEntry),
		conns:   make(map[net.Conn]struct{}),
		baseUTC: time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC),
		closed:  make(chan struct{}),
	}
}

// Engine exposes the embedded simulator (tests inspect its stats and
// virtual clock).
func (s *Server) Engine() *reader.Reader { return s.engine }

// Listen binds the given address ("127.0.0.1:0" for an ephemeral port) and
// starts accepting connections. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("llrp: listen %s: %w", addr, err)
	}
	return s.Serve(lis), nil
}

// Serve starts accepting connections from an already-bound listener —
// the seam where cmd/readersim and the chaos suite interpose a fault
// injector between the emulator and its clients. It returns the
// listener's address.
func (s *Server) Serve(lis net.Listener) net.Addr {
	s.lis = lis
	s.wg.Add(1)
	go s.acceptLoop()
	return lis.Addr()
}

// Close shuts the server down — severing any live client session, the
// way a reader losing power would — and waits for its goroutines.
func (s *Server) Close() error {
	s.closeMu.Do(func() { close(s.closed) })
	if s.lis != nil {
		s.lis.Close()
	}
	s.connMu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.connMu.Unlock()
	s.stopAll()
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(nc)
		}()
	}
}

// serverConn serialises writes from the message handler and the ROSpec
// runner, and carries the per-connection keepalive control.
type serverConn struct {
	nc   net.Conn
	mu   sync.Mutex
	kaCh chan time.Duration
}

func (c *serverConn) send(m Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// tagwatchvet(locksend): a client that stops reading used to be able
	// to wedge the emulator behind a full kernel buffer forever; the
	// deadline bounds the serialised write like llrp.Conn.send does.
	c.nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
	defer c.nc.SetWriteDeadline(time.Time{})
	_, err := c.nc.Write(m.EncodeFrame()) //tagwatch:allow-locked-send serialised frame write, bounded by the deadline above
	return err
}

func (s *Server) nowUTC() uint64 {
	return uint64(s.baseUTC.UnixMicro()) + uint64(s.engineNow()/time.Microsecond)
}

// engineNow reads the engine's virtual clock under engineMu.
func (s *Server) engineNow() time.Duration {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	return s.engine.Now()
}

func (s *Server) serve(nc net.Conn) {
	defer nc.Close()
	s.connMu.Lock()
	s.conns[nc] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, nc)
		s.connMu.Unlock()
	}()
	conn := &serverConn{nc: nc, kaCh: make(chan time.Duration, 1)}

	s.clientMu.Lock()
	if s.hasClient {
		s.clientMu.Unlock()
		st := ConnFailedReaderInUse
		conn.send(NewReaderEventNotification(0, UTCTimestamp{Microseconds: s.nowUTC()}, &st))
		return
	}
	s.hasClient = true
	s.clientMu.Unlock()
	defer func() {
		s.clientMu.Lock()
		s.hasClient = false
		s.clientMu.Unlock()
	}()
	defer s.stopAll()

	st := ConnSuccess
	if err := conn.send(NewReaderEventNotification(0, UTCTimestamp{Microseconds: s.nowUTC()}, &st)); err != nil {
		return
	}

	// Keepalive manager: the period starts from the server default and is
	// reconfigurable at runtime via SET_READER_CONFIG's KeepaliveSpec.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		period := s.cfg.KeepaliveEvery
		var tick <-chan time.Time
		var ticker *time.Ticker
		restart := func() {
			if ticker != nil {
				ticker.Stop()
				ticker = nil
				tick = nil
			}
			if period > 0 {
				ticker = time.NewTicker(period)
				tick = ticker.C
			}
		}
		restart()
		defer restart() // stops any live ticker on exit (period forced 0)
		var id uint32 = 1 << 24
		for {
			select {
			case p := <-conn.kaCh:
				period = p
				restart()
			case <-tick:
				id++
				if conn.send(NewKeepalive(id)) != nil {
					return
				}
			case <-stop:
				period = 0
				return
			case <-s.closed:
				period = 0
				return
			}
		}
	}()

	hdr := make([]byte, headerSize)
	for {
		// The emulated reader waits for the next client message for as
		// long as the client stays connected — that is the LLRP contract.
		// Stop() and client disconnect both close nc, which unblocks.
		if _, err := io.ReadFull(nc, hdr); err != nil { //tagwatch:allow-conndeadline wait-forever message pump; Stop/close severs nc
			return
		}
		length := int(binary.BigEndian.Uint32(hdr[2:]))
		if length < headerSize || length > maxFrameLen {
			return
		}
		frame := make([]byte, length)
		copy(frame, hdr)
		if _, err := io.ReadFull(nc, frame[headerSize:]); err != nil { //tagwatch:allow-conndeadline wait-forever message pump; Stop/close severs nc
			return
		}
		msg, _, err := DecodeFrame(frame)
		if err != nil {
			return
		}
		if closeAfter := s.handle(conn, msg); closeAfter {
			return
		}
	}
}

// handle processes one client message; it returns true when the connection
// should close.
func (s *Server) handle(conn *serverConn, msg Message) bool {
	ok := LLRPStatus{Code: StatusSuccess}
	switch msg.Type {
	case MsgAddROSpec:
		spec, err := DecodeAddROSpec(msg)
		if err == nil {
			err = checkFilters(spec, s.engine.Config().MaxSelectFilters)
		}
		status := ok
		if err != nil {
			status = LLRPStatus{Code: StatusParamError, Description: err.Error()}
		} else {
			s.mu.Lock()
			if _, dup := s.rospecs[spec.ID]; dup {
				status = LLRPStatus{Code: StatusFieldError, Description: fmt.Sprintf("ROSpec %d exists", spec.ID)}
			} else {
				s.rospecs[spec.ID] = &rospecEntry{spec: spec}
			}
			s.mu.Unlock()
		}
		conn.send(NewStatusResponse(MsgAddROSpecResponse, msg.ID, status))

	case MsgEnableROSpec:
		id, _ := ROSpecIDOf(msg)
		status := ok
		s.mu.Lock()
		e, exists := s.rospecs[id]
		if !exists {
			status = LLRPStatus{Code: StatusFieldError, Description: fmt.Sprintf("no ROSpec %d", id)}
		} else {
			e.enabled = true
		}
		s.mu.Unlock()
		// tagwatchvet(deverr): an immediate-start failure used to vanish —
		// the client saw a success status and then silence. Starting before
		// responding lets the status carry the real outcome.
		if exists && status.OK() && e.spec.Boundary.StartTrigger == StartTriggerImmediate {
			if err := s.startROSpec(conn, id); err != nil {
				status = LLRPStatus{Code: StatusFieldError, Description: fmt.Sprintf("immediate start: %s", err)}
			}
		}
		conn.send(NewStatusResponse(MsgEnableROSpecResponse, msg.ID, status))

	case MsgStartROSpec:
		id, _ := ROSpecIDOf(msg)
		status := ok
		if err := s.startROSpec(conn, id); err != nil {
			status = LLRPStatus{Code: StatusFieldError, Description: err.Error()}
		}
		conn.send(NewStatusResponse(MsgStartROSpecResponse, msg.ID, status))

	case MsgStopROSpec:
		id, _ := ROSpecIDOf(msg)
		s.stopROSpec(id)
		conn.send(NewStatusResponse(MsgStopROSpecResponse, msg.ID, ok))

	case MsgDisableROSpec:
		id, _ := ROSpecIDOf(msg)
		s.stopROSpec(id)
		s.mu.Lock()
		if e, exists := s.rospecs[id]; exists {
			e.enabled = false
		}
		s.mu.Unlock()
		conn.send(NewStatusResponse(MsgDisableROSpecResponse, msg.ID, ok))

	case MsgDeleteROSpec:
		id, _ := ROSpecIDOf(msg)
		if id == 0 {
			s.stopAll()
			s.mu.Lock()
			s.rospecs = make(map[uint32]*rospecEntry)
			s.mu.Unlock()
		} else {
			s.stopROSpec(id)
			s.mu.Lock()
			delete(s.rospecs, id)
			s.mu.Unlock()
		}
		conn.send(NewStatusResponse(MsgDeleteROSpecResponse, msg.ID, ok))

	case MsgSetReaderConfig:
		status := ok
		if ka, err := DecodeSetReaderConfig(msg); err != nil {
			status = LLRPStatus{Code: StatusParamError, Description: err.Error()}
		} else if ka != nil {
			period := time.Duration(0)
			if ka.Periodic {
				period = ka.Period
			}
			select {
			case conn.kaCh <- period:
			default:
			}
		}
		conn.send(NewStatusResponse(MsgSetReaderConfigResponse, msg.ID, status))

	case MsgGetReaderCapabilities:
		caps := Capabilities{
			MaxAntennas:              uint16(len(s.engine.Scene().Antennas)),
			ManufacturerPEN:          ImpinjPEN,
			Model:                    420, // Speedway R420 stand-in
			MaxSelectFiltersPerQuery: uint16(s.engine.Config().MaxSelectFilters),
			SupportsPhaseReporting:   true,
		}
		conn.send(NewGetReaderCapabilitiesResponse(msg.ID, ok, caps))

	case MsgKeepaliveAck:
		// nothing to do

	case MsgCloseConnection:
		conn.send(NewStatusResponse(MsgCloseConnectionResponse, msg.ID, ok))
		return true

	default:
		conn.send(NewStatusResponse(MsgErrorMessage, msg.ID,
			LLRPStatus{Code: StatusUnsupported, Description: fmt.Sprintf("message type %d", msg.Type)}))
	}
	return false
}

// startROSpec launches the runner goroutine for an enabled ROSpec.
func (s *Server) startROSpec(conn *serverConn, id uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, exists := s.rospecs[id]
	if !exists {
		return fmt.Errorf("no ROSpec %d", id)
	}
	if !e.enabled {
		return fmt.Errorf("ROSpec %d is disabled", id)
	}
	if e.done != nil {
		return nil // already running
	}
	for _, other := range s.rospecs {
		if other != e && other.done != nil {
			return errors.New("another ROSpec is active")
		}
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	s.wg.Add(1)
	go s.runROSpec(conn, e, e.stop, e.done)
	return nil
}

// stopROSpec signals a running ROSpec to stop and waits for it.
func (s *Server) stopROSpec(id uint32) {
	s.mu.Lock()
	e, exists := s.rospecs[id]
	var stop, done chan struct{}
	if exists && e.done != nil {
		done = e.done
		if e.stop != nil {
			stop = e.stop
			e.stop = nil // claim the close; the runner owns closing done
		}
	}
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	if done != nil {
		<-done
	}
}

// stopAll stops every running ROSpec.
func (s *Server) stopAll() {
	s.mu.Lock()
	ids := make([]uint32, 0, len(s.rospecs))
	for id := range s.rospecs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		s.stopROSpec(id)
	}
}

// unawareActions maps each LLRP state-unaware filter action to the Gen2
// Select action on SL that does the same to matching and non-matching
// tags.
var unawareActions = [...]gen2.Action{
	ActionSelectUnselect:    gen2.ActionAssertDeassert,
	ActionSelectDoNothing:   gen2.ActionAssertNothing,
	ActionDoNothingUnselect: gen2.ActionNothingDeassert,
	ActionUnselectDoNothing: gen2.ActionDeassertNothing,
	ActionUnselectSelect:    gen2.ActionDeassertAssert,
	ActionDoNothingSelect:   gen2.ActionNothingAssert,
}

// checkFilters refuses an ROSpec the engine cannot run as written: a
// filter action outside 0–5, or an AISpec with more filters than limit,
// the filter limit the reader advertises. An AISpec's filters share one
// inventory round, so they count together.
func checkFilters(spec ROSpec, limit int) error {
	for i, ai := range spec.AISpecs {
		n := 0
		for _, inv := range ai.Inventories {
			for _, cmd := range inv.Commands {
				for _, f := range cmd.Filters {
					if int(f.UnawareAction) >= len(unawareActions) {
						return fmt.Errorf("AISpec %d: filter action %d is not a state-unaware action (0-5)", i, f.UnawareAction)
					}
					n++
				}
			}
		}
		if n > limit {
			return fmt.Errorf("AISpec %d carries %d filters; the reader takes at most %d per inventory", i, n, limit)
		}
	}
	return nil
}

// filterToSelect converts an LLRP C1G2Filter, checked by checkFilters,
// into the reader engine's Select command.
func filterToSelect(f C1G2Filter) gen2.SelectCmd {
	return gen2.SelectCmd{
		Target:  gen2.TargetSL,
		Action:  unawareActions[f.UnawareAction],
		MemBank: f.Mask.MemBank,
		Pointer: int(f.Mask.Pointer),
		Mask:    f.Mask.Mask,
	}
}

// runROSpec executes the ROSpec until its stop trigger fires or it is
// stopped. AISpecs run in order and the list repeats (the LLRP execution
// model). Each round's reads stream out as one RO_ACCESS_REPORT, or,
// when the ROReportSpec asks for a report every N tags, as one report
// per N reads, sent (under TimeScale) when the Nth was singulated.
func (s *Server) runROSpec(conn *serverConn, e *rospecEntry, stop, done chan struct{}) {
	defer s.wg.Done()
	// The runner is the sole closer of done, whether it exits on its own
	// (duration trigger, dead socket) or because a stopper claimed and
	// closed e.stop. Stoppers wait on done; closing it last means they
	// observe the entry fully reset.
	defer func() {
		s.mu.Lock()
		e.stop, e.done = nil, nil
		s.mu.Unlock()
		close(done)
	}()
	spec := e.spec
	var evID uint32 = 1 << 20
	evID += spec.ID
	conn.send(NewROSpecEventNotification(evID, UTCTimestamp{Microseconds: s.nowUTC()},
		ROSpecEvent{Type: ROSpecStarted, ROSpecID: spec.ID}))
	defer func() {
		conn.send(NewROSpecEventNotification(evID+1, UTCTimestamp{Microseconds: s.nowUTC()},
			ROSpecEvent{Type: ROSpecEnded, ROSpecID: spec.ID}))
	}()

	var specDeadline time.Duration
	if spec.Boundary.StopTrigger == StopTriggerDuration {
		specDeadline = s.engineNow() + time.Duration(spec.Boundary.DurationMS)*time.Millisecond
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		case <-s.closed:
			return true
		default:
			return false
		}
	}

	var reportID uint32
	var pending []TagReportData
	var reads []reader.TagRead // one round's reads, in singulation order
	batchN := 0
	if spec.Report != nil && spec.Report.Trigger == ReportEveryN && spec.Report.N > 0 {
		batchN = int(spec.Report.N)
	}
	flush := func() bool {
		if len(pending) == 0 {
			return true
		}
		reportID++
		err := conn.send(NewROAccessReport(reportID, pending))
		pending = pending[:0]
		return err == nil
	}
	defer flush()
	// paced is the virtual time the wall clock has been held to under
	// TimeScale; pace sleeps until it reaches t.
	var paced time.Duration
	pace := func(t time.Duration) {
		if s.cfg.TimeScale > 0 && t > paced {
			time.Sleep(time.Duration(float64(t-paced) * s.cfg.TimeScale))
			paced = t
		}
	}
	for {
		if stopped() {
			return
		}
		if specDeadline > 0 && s.engineNow() >= specDeadline {
			return
		}
		progressed := false
		for _, ai := range spec.AISpecs {
			if stopped() {
				return
			}
			aiDeadline := s.engineNow()
			if ai.StopTrigger.Type == AIStopDuration {
				aiDeadline += time.Duration(ai.StopTrigger.DurationMS) * time.Millisecond
			}
			var filters []gen2.SelectCmd
			for _, inv := range ai.Inventories {
				for _, cmd := range inv.Commands {
					for _, f := range cmd.Filters {
						filters = append(filters, filterToSelect(f))
					}
				}
			}
			antennas := ai.AntennaIDs
			if len(antennas) == 0 || (len(antennas) == 1 && antennas[0] == 0) {
				antennas = nil
				for _, a := range s.engine.Scene().Antennas {
					antennas = append(antennas, uint16(a.ID))
				}
			}
			if len(antennas) == 0 {
				// No round would run, so the clock could never reach a
				// deadline: skip the AISpec and leave the guard below
				// to end a spec that has nothing else to run.
				continue
			}
			// Run at least one pass; with a duration trigger keep cycling
			// rounds until the virtual deadline.
			for pass := 0; ; pass++ {
				if stopped() {
					return
				}
				if specDeadline > 0 && s.engineNow() >= specDeadline {
					return
				}
				if ai.StopTrigger.Type == AIStopDuration && pass > 0 && s.engineNow() >= aiDeadline {
					break
				}
				for _, ant := range antennas {
					budget := time.Duration(0)
					if ai.StopTrigger.Type == AIStopDuration {
						budget = aiDeadline - s.engineNow()
						if budget <= 0 {
							break
						}
					}
					// The round takes next to no wall time; its reports go out
					// after the engine is released, each paced to the
					// read that completes it.
					s.engineMu.Lock()
					start := s.engine.Now()
					end := start + s.engine.RunRound(reader.RoundOpts{
						Antenna: int(ant),
						Filters: filters,
						Budget:  budget,
					}, func(rd reader.TagRead) { reads = append(reads, rd) })
					s.engineMu.Unlock()
					progressed = true
					paced = start
					for _, rd := range reads {
						pending = append(pending, s.toReport(spec.ID, rd))
						if batchN > 0 && len(pending) == batchN {
							pace(rd.Time)
							if !flush() {
								return
							}
						}
					}
					reads = reads[:0]
					if batchN == 0 && !flush() {
						return
					}
					pace(end)
				}
				if ai.StopTrigger.Type != AIStopDuration {
					break // null trigger: one pass, then next AISpec
				}
			}
		}
		if !progressed {
			// A spec with no executable AISpecs would spin; bail out.
			return
		}
	}
}

// toReport converts a simulator read into a wire tag report.
func (s *Server) toReport(rospecID uint32, rd reader.TagRead) TagReportData {
	tr := TagReportData{
		EPC:          rd.EPC,
		ROSpecID:     rospecID,
		AntennaID:    uint16(rd.Antenna),
		ChannelIndex: uint16(rd.Channel + 1), // LLRP channel indices are 1-based
		FirstSeenUTC: uint64(s.baseUTC.UnixMicro()) + uint64(rd.Time/time.Microsecond),
		TagSeenCount: 1,
	}
	rssi := rd.RSSdBm
	if rssi < -128 {
		rssi = -128
	}
	if rssi > 127 {
		rssi = 127
	}
	tr.PeakRSSIdBm = int8(rssi)
	tr.SetPhaseRadians(rd.PhaseRad)
	return tr
}
