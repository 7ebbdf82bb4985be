package fleet

import "testing"

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
