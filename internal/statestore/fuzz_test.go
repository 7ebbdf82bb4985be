package statestore

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary snapshot file images to the
// decoder: no panics, and an accepted image must be exactly the header
// the store writes followed by the payload it returned.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, p := range [][]byte{[]byte("payload"), nil, []byte(`{"version":1,"tags":[]}`)} {
		f.Add(append(snapshotHeader(p), p...))
	}
	f.Add([]byte(snapMagic))
	// A length field far beyond the image.
	f.Add(append(snapshotHeader(make([]byte, 1<<20)), 'x'))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if again := append(snapshotHeader(payload), payload...); !bytes.Equal(again, data) {
			t.Fatalf("accepted image %x re-encodes to %x", data, again)
		}
	})
}

// FuzzParseJournal feeds arbitrary journal images to the replay parser:
// no panics, and the records it surfaces, framed again, must be exactly
// the valid prefix it reports.
func FuzzParseJournal(f *testing.F) {
	f.Add(appendRecord(appendRecord(nil, []byte("a=1")), []byte(`{"type":"drop"}`)))
	f.Add(append(appendRecord(nil, []byte("torn")), 9, 0, 0))
	f.Add([]byte{})
	// A zero length and an oversized length.
	f.Add(make([]byte, recHeaderLen))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		records, validLen := parseJournal(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("valid prefix %d of a %d-byte journal", validLen, len(data))
		}
		var again []byte
		for _, r := range records {
			again = appendRecord(again, r)
		}
		if !bytes.Equal(again, data[:validLen]) {
			t.Fatalf("records %q re-frame to %x, valid prefix is %x", records, again, data[:validLen])
		}
	})
}
