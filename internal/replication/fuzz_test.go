package replication

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"tagwatch/internal/statestore"
)

// FuzzDecodeRecords feeds the journal-batch decoder arbitrary payloads, as
// a corrupt or hostile primary could: it must never panic, and every
// payload it accepts must re-encode to the same bytes.
func FuzzDecodeRecords(f *testing.F) {
	f.Add(encodeRecords(statestore.Cursor{Gen: 3, Offset: 4096}, [][]byte{[]byte(`{"type":"tag"}`), nil, []byte("x")}))
	f.Add(encodeRecords(statestore.Cursor{}, nil))
	f.Add([]byte{})
	// A count that claims more records than the payload could hold.
	f.Add(append(make([]byte, 16), 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, payload []byte) {
		end, records, err := decodeRecords(payload)
		if err != nil {
			return
		}
		if again := encodeRecords(end, records); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload %x re-encodes to %x", payload, again)
		}
	})
}

// FuzzReadFrame feeds the frame reader arbitrary bytes over a pipe, as
// a corrupt or hostile peer could send them: it must never panic or
// hang, and every frame it accepts must re-encode to the bytes it was
// read from.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range [][]byte{
		frameBytes(f, fHello, []byte(`{"version":1}`)),
		frameBytes(f, fRecords, encodeRecords(statestore.Cursor{Gen: 1, Offset: 9}, [][]byte{[]byte("x")})),
		frameBytes(f, fHeartbeat, nil),
		{},
		make([]byte, frameHeaderLen),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrom(data)
		if err != nil {
			return
		}
		if again := frameBytes(t, typ, payload); !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("accepted frame %x re-encodes to %x", data, again)
		}
	})
}

// readFrom runs readFrame against a peer that writes data and hangs up.
func readFrom(data []byte) (byte, []byte, error) {
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = srv.Write(data) // a reader that stops early closes the pipe
		srv.Close()
	}()
	typ, payload, err := readFrame(cli, 5*time.Second)
	cli.Close()
	<-done
	return typ, payload, err
}

// frameBytes returns the bytes writeFrame puts on the wire.
func frameBytes(tb testing.TB, typ byte, payload []byte) []byte {
	cli, srv := net.Pipe()
	defer cli.Close()
	errc := make(chan error, 1)
	go func() {
		errc <- writeFrame(srv, 5*time.Second, typ, payload)
		srv.Close()
	}()
	b, err := io.ReadAll(cli)
	if err == nil {
		err = <-errc
	}
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
