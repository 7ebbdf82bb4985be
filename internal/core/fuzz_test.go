package core

import (
	"bytes"
	"os"
	"testing"
)

// fuzzEngine returns a middleware restored from the golden snapshot and
// that snapshot's image, with no change left to journal.
func fuzzEngine(t testing.TB, golden []byte) (*Tagwatch, []byte) {
	tw := New(DefaultConfig(), nil)
	if err := tw.RestoreImage(golden); err != nil {
		t.Fatal(err)
	}
	img, err := tw.Image()
	if err != nil {
		t.Fatal(err)
	}
	return tw, img
}

// checkDecode applies one decoder to a restored middleware. A rejected
// input must leave it unchanged, with nothing to journal; an accepted
// one must leave a state that encodes again.
func checkDecode(t *testing.T, golden []byte, decode func(*Tagwatch) error) {
	tw, before := fuzzEngine(t, golden)
	if err := decode(tw); err == nil {
		if _, err := tw.Image(); err != nil {
			t.Fatalf("accepted input leaves a state that does not encode: %v", err)
		}
		return
	}
	after, err := tw.Image()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a rejected input changed the middleware")
	}
	if recs, err := tw.Changes(); err != nil || len(recs) != 0 {
		t.Fatalf("a rejected input left %d changes (%v)", len(recs), err)
	}
}

// goldenSeeds reads a golden file, failing the fuzz target without it.
func goldenSeeds(f *testing.F, name string) []byte {
	data, err := os.ReadFile("testdata/" + name + ".golden")
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzRestoreImage feeds arbitrary snapshot payloads to the middleware.
func FuzzRestoreImage(f *testing.F) {
	golden := goldenSeeds(f, "snapshot")
	f.Add(golden)
	f.Add([]byte(`{"version":2,"motion":{"version":1,"stacks":[]},"pinned":["zz"]}`))
	f.Add([]byte(`{"version":1,"stacks":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, golden, func(tw *Tagwatch) error { return tw.RestoreImage(data) })
	})
}

// FuzzApplyRecord feeds arbitrary journal records to the middleware.
func FuzzApplyRecord(f *testing.F) {
	golden := goldenSeeds(f, "snapshot")
	for _, rec := range bytes.Split(bytes.TrimSpace(goldenSeeds(f, "journal")), []byte("\n")) {
		f.Add(rec)
	}
	f.Add([]byte(`{"type":"link","link":{"epc":"6145a732947efb848f05f536","antenna":1,"channel":0,"modes":[{"w":1,"mu":0,"sigma":0,"n":1}]}}`))
	f.Add([]byte(`{"type":"pins","pins":["6145a732947efb848f05f536","zz"]}`))
	f.Add([]byte(`{"type":"forget","epc":""}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, golden, func(tw *Tagwatch) error { return tw.ApplyRecord(data) })
	})
}
