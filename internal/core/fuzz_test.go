package core

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
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

// FuzzApplyFileConfig feeds arbitrary configuration files to the
// decoder. An accepted file sets every duration it names to exactly its
// milliseconds, and keeps every other one at its default: no value wraps
// negative or to another length.
func FuzzApplyFileConfig(f *testing.F) {
	f.Add([]byte(`{"phase2_dwell_ms": 2000, "sticky_ms": 7000, "depart_after_ms": 60000, "mobile_cutoff": 0.3}`))
	f.Add([]byte(`{"pinned_epcs": ["30f4ab12cd0045e100000001"], "naive_schedule": true}`))
	f.Add([]byte(`{"phase2_dwell_ms": 9223372036854}`))
	f.Add([]byte(`{"phase2_dwell_ms": 9300000000000}`))
	f.Add([]byte(`{"sticky_ms": 18446744073709}`))
	f.Add([]byte(`{"depart_after_ms": 9223372036854775807}`))
	def := DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := applyFileConfig(DefaultConfig(), data)
		if err != nil {
			return
		}
		var fc FileConfig
		if err := json.Unmarshal(data, &fc); err != nil {
			t.Fatalf("accepted a file encoding/json rejects: %v", err)
		}
		for _, d := range []struct {
			name     string
			ms       int
			got, def time.Duration
		}{
			{"phase2_dwell_ms", fc.PhaseIIDwellMS, cfg.PhaseIIDwell, def.PhaseIIDwell},
			{"sticky_ms", fc.StickyMS, cfg.StickyFor, def.StickyFor},
			{"depart_after_ms", fc.DepartAfterMS, cfg.DepartAfter, def.DepartAfter},
		} {
			if d.ms == 0 {
				if d.got != d.def {
					t.Fatalf("%s absent gave %v, want the default %v", d.name, d.got, d.def)
				}
				continue
			}
			// Compared by division, so a product that wrapped cannot pass.
			if d.got < 0 || d.got%time.Millisecond != 0 || int(d.got/time.Millisecond) != d.ms {
				t.Fatalf("%s %d gave %v, want %d ms", d.name, d.ms, d.got, d.ms)
			}
		}
		if cfg.MobileCutoff <= 0 || cfg.MobileCutoff > 1 {
			t.Fatalf("accepted mobile cutoff %v", cfg.MobileCutoff)
		}
	})
}
