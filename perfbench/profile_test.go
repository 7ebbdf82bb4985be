package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
	"time"
)

// pbuf is a minimal protobuf writer for hand-building profiles.
type pbuf []byte

func (p *pbuf) varint(field int, v uint64) {
	*p = binary.AppendUvarint(*p, uint64(field)<<3)
	*p = binary.AppendUvarint(*p, v)
}

func (p *pbuf) message(field int, m pbuf) {
	*p = binary.AppendUvarint(*p, uint64(field)<<3|2)
	*p = binary.AppendUvarint(*p, uint64(len(m)))
	*p = append(*p, m...)
}

func (p *pbuf) packed(field int, vs ...uint64) {
	var m pbuf
	for _, v := range vs {
		m = binary.AppendUvarint(m, v)
	}
	p.message(field, m)
}

// handProfile encodes a CPU profile whose samples are the given stacks
// of function names (innermost first, a "+"-joined entry being one
// location with inlined frames) with their CPU times.
func handProfile(t *testing.T, stacks [][]string, cpu []time.Duration) []byte {
	t.Helper()
	var p pbuf
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbuf
		m.varint(1, strIdx(vt[0]))
		m.varint(2, strIdx(vt[1]))
		p.message(1, m)
	}
	funcs := map[string]uint64{}
	nextLoc := uint64(0)
	for i, st := range stacks {
		var locIDs []uint64
		for _, frame := range st {
			nextLoc++
			var loc pbuf
			loc.varint(1, nextLoc)
			for _, fn := range bytes.Split([]byte(frame), []byte("+")) {
				id, ok := funcs[string(fn)]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[string(fn)] = id
					var f pbuf
					f.varint(1, id)
					f.varint(2, strIdx(string(fn)))
					p.message(5, f)
				}
				var line pbuf
				line.varint(1, id)
				loc.message(4, line)
			}
			p.message(4, loc)
			locIDs = append(locIDs, nextLoc)
		}
		var s pbuf
		s.packed(1, locIDs...)
		s.packed(2, 1, uint64(cpu[i]))
		p.message(2, s)
	}
	for _, s := range strs {
		p.message(6, pbuf(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	ms := time.Millisecond
	stacks := [][]string{
		// Runtime work goes to the internal caller.
		{"runtime.mallocgc", "tagwatch/internal/schedule.(*IndexTable).Select", "tagwatch/internal/core.(*Tagwatch).RunCycle", "main.main"},
		// A background collector with no internal frame.
		{"runtime.scanobject", "runtime.gcBgMarkWorker"},
		// The scheduler and the rig itself.
		{"runtime.findRunnable", "runtime.schedule"},
		{"main.(*consumer).loop"},
		// Inlined frames: the innermost one decides.
		{"tagwatch/internal/epc.EPC.MatchBits+tagwatch/internal/motion.(*Detector).Observe"},
		// A package outside the named layers defers to its caller.
		{"tagwatch/internal/stats.Mean", "tagwatch/internal/motion.(*Stack).update"},
		{"tagwatch/internal/analysis/flow.Dominates"},
		// Standard-library plumbing under a layer's goroutine.
		{"syscall.write", "net.(*conn).Write", "tagwatch/internal/fleet.(*EventStreamer).ServeHTTP", "net/http.(*conn).serve"},
	}
	cpu := []time.Duration{30 * ms, 20 * ms, 10 * ms, 5 * ms, 7 * ms, 3 * ms, 2 * ms, 4 * ms}
	parsed, err := parseProfile(handProfile(t, stacks, cpu))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(parsed), len(stacks))
	}
	got := attribute(parsed)
	want := map[string]time.Duration{
		"schedule": 30 * ms, "gc": 20 * ms, "other": 17 * ms, "epc": 7 * ms, "motion": 3 * ms, "fleet": 4 * ms,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("attribution = %v, want exactly %v", got, want)
	}
}
