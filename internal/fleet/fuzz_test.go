package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzParseCursor exercises the Last-Event-ID / id: cursor parser with
// arbitrary strings: no panics, and every accepted cursor must parse to
// the same identity and sequence again after FormatCursor.
func FuzzParseCursor(f *testing.F) {
	f.Add("4f2a9c0e11d2b3a4:1041")
	f.Add("bus:0")
	f.Add(":7")
	f.Add("id:")
	f.Add("id:18446744073709551616")
	f.Add("a:b:3")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		identity, seq, ok := ParseCursor(s)
		if !ok {
			return
		}
		again, seqAgain, ok := ParseCursor(FormatCursor(identity, seq))
		if !ok || again != identity || seqAgain != seq {
			t.Fatalf("%q parsed to (%q, %d) but its formatted cursor to (%q, %d, %v)", s, identity, seq, again, seqAgain, ok)
		}
	})
}

// checkDecode applies one decoder to a registry restored from the golden
// snapshot. A rejected input must leave the registry unchanged, with
// nothing to journal; an accepted one must leave a state that encodes
// again.
func checkDecode(t *testing.T, golden []byte, decode func(*Registry) error) {
	reg := NewRegistry()
	if err := reg.RestoreImage(golden); err != nil {
		t.Fatal(err)
	}
	before, err := reg.Image()
	if err != nil {
		t.Fatal(err)
	}
	if err := decode(reg); err == nil {
		if _, err := reg.Image(); err != nil {
			t.Fatalf("accepted input leaves a registry that does not encode: %v", err)
		}
		return
	}
	after, err := reg.Image()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a rejected input changed the registry")
	}
	if recs, err := reg.Changes(); err != nil || len(recs) != 0 {
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

// FuzzRestoreImage feeds arbitrary snapshot payloads to the registry.
func FuzzRestoreImage(f *testing.F) {
	golden := goldenSeeds(f, "snapshot")
	f.Add(golden)
	f.Add([]byte(`{"version":1,"tags":[{"epc":"30f4ab12cd0045e100000009"},{"epc":"zz"}]}`))
	f.Add([]byte(`{"version":2,"tags":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, golden, func(reg *Registry) error { return reg.RestoreImage(data) })
	})
}

// FuzzApplyRecord feeds arbitrary journal records to the registry.
func FuzzApplyRecord(f *testing.F) {
	golden := goldenSeeds(f, "snapshot")
	for _, rec := range bytes.Split(bytes.TrimSpace(goldenSeeds(f, "journal")), []byte("\n")) {
		f.Add(rec)
	}
	f.Add([]byte(`{"type":"tag"}`))
	f.Add([]byte(`{"type":"drop","epc":"30f4ab12cd0045e1000000"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, golden, func(reg *Registry) error { return reg.ApplyRecord(data) })
	})
}

// FuzzReaderCounts holds ReaderCounts' JSON to the map[string]uint64 it
// replaced: the same inputs are accepted, and an accepted value
// re-encodes to the map's bytes, with HTML escaping on and off.
func FuzzReaderCounts(f *testing.F) {
	for _, s := range []string{
		`null`, `{}`, `{"r0":1}`, `{"r0":1,"r1":18446744073709551615}`,
		`{"b":1,"a":2}`, `{"a":1,"a":2}`, `{"a":null}`, ` { "a" : 1 } `,
		`{"løft":3}`, `{"dock<2>&":1}`, `{"dock\u003c2\u003e\u0026":1}`, `{" ":1}`,
		`{"\ud800":1}`, "{\"\xff\":1}", `{"a\"b\\c\n":1}`,
		`{"a":01}`, `{"a":-1}`, `{"a":1.0}`, `{"a":1e2}`, `{"a":18446744073709551616}`,
		`{"a":"1"}`, `{"a":1,}`, `[]`, `1`, `"x"`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m map[string]uint64
		mapErr := json.Unmarshal(data, &m)
		var rc ReaderCounts
		err := json.Unmarshal(data, &rc)
		var direct ReaderCounts
		directErr := direct.UnmarshalJSON(data)
		if (err == nil) != (mapErr == nil) || (directErr == nil) != (mapErr == nil) {
			t.Fatalf("%q: map decoder says %v, ReaderCounts %v (direct %v)", data, mapErr, err, directErr)
		}
		if mapErr != nil {
			return
		}
		if (rc == nil) != (m == nil) || len(rc) != len(m) {
			t.Fatalf("%q decodes to %v, the map to %v", data, rc, m)
		}
		for i, c := range rc {
			if i > 0 && rc[i-1].Reader >= c.Reader {
				t.Fatalf("%q decodes unsorted: %v", data, rc)
			}
			if v, ok := m[c.Reader]; !ok || v != c.Reads {
				t.Fatalf("%q decodes to %v, the map to %v", data, rc, m)
			}
		}
		encode := func(v any, escapeHTML bool) []byte {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(escapeHTML)
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		for _, escapeHTML := range []bool{true, false} {
			if got, want := encode(rc, escapeHTML), encode(m, escapeHTML); !bytes.Equal(got, want) {
				t.Fatalf("%q re-encodes (escape HTML %v) to %s, the map to %s", data, escapeHTML, got, want)
			}
		}
	})
}
