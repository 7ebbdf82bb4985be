package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"tagwatch/internal/core"
)

// TestServedFormatGolden pins what subscribers and API clients read of
// tag images: one tag event's SSE frame, an /api/tags body and a reset
// payload, for tags read by readers whose names need JSON escaping
// (HTML characters, non-ASCII, a line separator). The golden bytes were
// written while Readers was still a map[string]uint64; a diff here is
// an API change. Every time is fixed.
func TestServedFormatGolden(t *testing.T) {
	reg := NewRegistry()
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 600, time.UTC)
	a := mustEPC(t, "30f4ab12cd0045e100000001")
	b := mustEPC(t, "30f4ab12cd0045e100000002")
	for i, name := range []string{"r1", "dock<2>&co", "r1", "løft\u2028b", "r0", "r1"} {
		reg.Observe(name, core.Reading{EPC: a, Antenna: i % 3, Time: time.Duration(i) * time.Second}, t0.Add(time.Duration(i)*time.Second))
	}
	reg.Observe("r0", core.Reading{EPC: b, Antenna: 2, Time: 700 * time.Millisecond}, t0)
	reg.UpdateAssessment("r1", a, true, 12.5)
	st, _ := reg.Get(a)

	var got bytes.Buffer
	es := &EventStreamer{}
	fmt.Fprintf(&got, "-- sse tag event --\n")
	es.sendEvent(func(format string, args ...any) bool {
		fmt.Fprintf(&got, format, args...)
		return true
	}, "0123456789abcdef", Event{Type: EventTag, Reader: "r1", At: t0, Seq: 42, Tag: &st})

	fmt.Fprintf(&got, "-- /api/tags --\n")
	rec := httptest.NewRecorder()
	ServeTags(rec, httptest.NewRequest("GET", "/api/tags", nil), reg.Snapshot)
	got.Write(rec.Body.Bytes())

	fmt.Fprintf(&got, "-- reset payload --\n")
	reset, err := json.Marshal(ResetPayload{Identity: "0123456789abcdef", Cursor: 42, Tags: reg.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	got.Write(append(reset, '\n'))

	want, err := os.ReadFile("testdata/served.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("served bytes differ from testdata/served.golden:\n got %s\nwant %s", got.Bytes(), want)
	}
}
