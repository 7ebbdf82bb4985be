package fleet

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
)

// ReaderCount is one reader's lifetime read count for a tag.
type ReaderCount struct {
	Reader string
	Reads  uint64
}

// ReaderCounts holds a tag's per-reader read counts, sorted by reader
// name. Every tag image the registry publishes carries a copy, and the
// bus and edge rings retain thousands of images, so the representation
// is the smallest one that fits: a tag is read by one reader or a few,
// and a sorted slice costs 24 B per reader where a map costs about
// 256 B. The JSON is exactly that of the map[string]uint64 it replaced:
// an object keyed by reader name in sorted order, null for a nil value.
type ReaderCounts []ReaderCount

// Get returns reader's count, 0 when it never read the tag.
func (rc ReaderCounts) Get(reader string) uint64 {
	for _, c := range rc {
		if c.Reader == reader {
			return c.Reads
		}
	}
	return 0
}

// inc counts one more read by reader, keeping the order.
func (rc *ReaderCounts) inc(reader string) {
	s := *rc
	i := 0
	for i < len(s) && s[i].Reader < reader {
		i++
	}
	if i < len(s) && s[i].Reader == reader {
		s[i].Reads++
		return
	}
	s = append(s, ReaderCount{})
	copy(s[i+1:], s[i:])
	s[i] = ReaderCount{Reader: reader, Reads: 1}
	*rc = s
}

// MarshalJSON writes the counts as the map would. Names are escaped as
// encoding/json escapes a string with HTML escaping off; when the
// caller's encoder escapes HTML, it does so to this output too.
func (rc ReaderCounts) MarshalJSON() ([]byte, error) {
	if rc == nil {
		return []byte("null"), nil
	}
	b := make([]byte, 0, 2+len(rc)*24)
	b = append(b, '{')
	for i, c := range rc {
		if i > 0 {
			b = append(b, ',')
		}
		if plain(c.Reader) {
			b = append(b, '"')
			b = append(b, c.Reader...)
			b = append(b, '"')
		} else {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(c.Reader); err != nil {
				return nil, err
			}
			b = append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
		}
		b = append(b, ':')
		b = strconv.AppendUint(b, c.Reads, 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON accepts exactly what decoding into a map[string]uint64
// accepts, with the same meaning: it decodes through the map and sorts.
func (rc *ReaderCounts) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*rc = nil
		return nil
	}
	out := make(ReaderCounts, 0, len(m))
	for k, v := range m {
		out = append(out, ReaderCount{Reader: k, Reads: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Reader < out[j].Reader })
	*rc = out
	return nil
}

// plain reports whether s needs no escaping in a JSON string: printable
// ASCII other than the quote and the backslash.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}
