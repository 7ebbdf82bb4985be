package replication

import (
	"bytes"
	"testing"

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
