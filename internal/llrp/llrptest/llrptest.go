// Package llrptest runs a scripted LLRP reader for tests: a TCP
// listener that opens each session with the connection-attempt event
// and hands every request frame to the test, which answers it however
// the case needs — late reports, stray ROSpec IDs, failed operations.
package llrptest

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tagwatch/internal/llrp"
)

const (
	// maxFrame bounds a request frame; the clients under test send
	// control messages of a few hundred bytes.
	maxFrame = 1 << 20
	// ioTimeout bounds every read and write of a session.
	ioTimeout = 30 * time.Second
)

// Session is one client connection to the scripted reader.
type Session struct {
	conn net.Conn
	mu   sync.Mutex
	id   uint32
}

// Handler answers one request frame. It returns false to hang up.
type Handler func(s *Session, req llrp.Message) bool

// Listen starts a scripted reader on loopback and returns its address.
// Clients are served one at a time, in order of arrival. The listener
// and any live session close when the test ends.
func Listen(t testing.TB, handle Handler) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		live net.Conn
	)
	wg.Add(1)
	//tagwatch:allow-leak the loop ends when the cleanup below closes the listener
	go func() {
		defer wg.Done()
		for {
			nc, err := lis.Accept()
			if err != nil {
				return // the listener closed
			}
			mu.Lock()
			live = nc
			mu.Unlock()
			serve(&Session{conn: nc}, handle)
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		mu.Lock()
		if live != nil {
			live.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return lis.Addr().String()
}

// serve runs one session until the client leaves or the handler hangs
// up.
func serve(s *Session, handle Handler) {
	defer s.conn.Close()
	ok := llrp.ConnSuccess
	if s.Send(llrp.NewReaderEventNotification(0, llrp.UTCTimestamp{}, &ok)) != nil {
		return
	}
	hdr := make([]byte, 10)
	for {
		// A client silent this long has wedged its test; hang up on it.
		if s.conn.SetReadDeadline(time.Now().Add(ioTimeout)) != nil {
			return
		}
		if _, err := io.ReadFull(s.conn, hdr); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[2:])
		if n < uint32(len(hdr)) || n > maxFrame {
			return
		}
		frame := make([]byte, n)
		copy(frame, hdr)
		if _, err := io.ReadFull(s.conn, frame[len(hdr):]); err != nil {
			return
		}
		req, _, err := llrp.DecodeFrame(frame)
		if err != nil || req.Type == llrp.MsgKeepaliveAck {
			continue
		}
		if !handle(s, req) {
			return
		}
	}
}

// Send writes one message to the client.
func (s *Session) Send(m llrp.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.conn.SetWriteDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	_, err := s.conn.Write(m.EncodeFrame()) //tagwatch:allow-locked-send serialised frame write, bounded by SetWriteDeadline
	return err
}

// Reply answers req with a status response of the matching type.
func (s *Session) Reply(req llrp.Message, code llrp.StatusCode) error {
	return s.Send(llrp.NewStatusResponse(responseType(req.Type), req.ID, llrp.LLRPStatus{Code: code}))
}

// Report sends one RO_ACCESS_REPORT.
func (s *Session) Report(reports ...llrp.TagReportData) error {
	s.mu.Lock()
	s.id++
	id := s.id
	s.mu.Unlock()
	return s.Send(llrp.NewROAccessReport(id, reports))
}

// Ended sends the ROSpecEnded event for one ROSpec.
func (s *Session) Ended(rospecID uint32) error {
	return s.Send(llrp.NewROSpecEventNotification(0, llrp.UTCTimestamp{},
		llrp.ROSpecEvent{Type: llrp.ROSpecEnded, ROSpecID: rospecID}))
}

// responseType maps a request to its response type.
func responseType(t llrp.MessageType) llrp.MessageType {
	switch t {
	case llrp.MsgGetReaderCapabilities:
		return llrp.MsgGetReaderCapabilitiesResponse
	case llrp.MsgSetReaderConfig:
		return llrp.MsgSetReaderConfigResponse
	case llrp.MsgCloseConnection:
		return llrp.MsgCloseConnectionResponse
	case llrp.MsgAddROSpec, llrp.MsgDeleteROSpec, llrp.MsgStartROSpec,
		llrp.MsgStopROSpec, llrp.MsgEnableROSpec, llrp.MsgDisableROSpec:
		return t + 10 // the ROSpec operations answer ten above
	default:
		return llrp.MsgErrorMessage
	}
}
