package edge

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// FuzzFrameLoop feeds arbitrary bytes to the SSE frame loop as an
// upstream stream that ends when they run out. The loop must not panic,
// must return, and must keep its cursor from moving back except by
// adopting a reset frame: without one, the identity may only be dropped,
// never replaced, and within one identity the sequence never falls.
func FuzzFrameLoop(f *testing.F) {
	golden, err := os.ReadFile("../fleet/testdata/served.golden")
	if err != nil {
		f.Fatal(err)
	}
	// The golden file's SSE section is one tag event at cursor
	// 0123456789abcdef:42; the reset anchors that identity at 41 so the
	// event applies, and the gap announces a hole after it.
	_, sse, _ := bytes.Cut(golden, []byte("-- sse tag event --\n"))
	sse, _, _ = bytes.Cut(sse, []byte("\n-- "))
	event := append(bytes.Clone(sse), '\n') // the blank line ending the frame
	reset := []byte("id: 0123456789abcdef:41\nevent: reset\n" +
		`data: {"identity":"0123456789abcdef","cursor":41,"tags":[{"epc":"30f4ab12cd0045e100000002","reader":"r0","reads":1}]}` + "\n\n")
	gap := []byte("id: 0123456789abcdef:50\nevent: gap\n" +
		`data: {"type":"gap","at":"2026-01-02T03:04:05Z","seq":50,"gap_from":43,"gap_to":50}` + "\n\n")
	f.Add(golden)
	f.Add(reset)
	f.Add(bytes.Join([][]byte{reset, event, gap}, nil))

	f.Fuzz(func(t *testing.T, in []byte) {
		c := NewClient(Config{Upstream: "fuzz"})
		near, far := net.Pipe()
		defer near.Close()
		go func() {
			far.Write(in) // fails once the loop has returned and near is closed
			far.Close()
		}()
		w := &cursorWatch{t: t, c: c, r: near}
		done := make(chan struct{})
		go func() {
			defer close(done)
			// The smallest buffer bufio allows, so the watch looks at the
			// cursor after nearly every frame.
			c.frameLoop(context.Background(), near, bufio.NewReaderSize(w, 16))
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("frameLoop did not return after the stream ended")
		}
		w.check()
	})
}

// cursorWatch is the stream frameLoop reads: before every read from the
// pipe it compares the client's cursor with the one it saw last.
type cursorWatch struct {
	t *testing.T
	c *Client
	r io.Reader

	identity string
	cursor   uint64
	resets   uint64
}

func (w *cursorWatch) Read(p []byte) (int, error) {
	w.check()
	return w.r.Read(p)
}

func (w *cursorWatch) check() {
	st := w.c.Status()
	if st.Resets == w.resets {
		if st.Identity != w.identity && st.Identity != "" {
			w.t.Errorf("identity %q replaced by %q without a reset", w.identity, st.Identity)
		}
		if st.Identity == w.identity && st.Cursor < w.cursor {
			w.t.Errorf("cursor %s:%d moved back to %d without a reset", w.identity, w.cursor, st.Cursor)
		}
	}
	w.identity, w.cursor, w.resets = st.Identity, st.Cursor, st.Resets
}
