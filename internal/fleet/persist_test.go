package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/statestore"
)

// regJSON canonicalises a registry for comparison: sorted snapshot,
// JSON-encoded (which also strips time.Time monotonic clocks, so a
// state that round-tripped through disk compares equal to the live one).
func regJSON(t *testing.T, r *Registry) string {
	t.Helper()
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetStateRestartRoundTrip drives the full manager lifecycle: a
// fleet with a StateDir accumulates registry state, Stop writes the
// final snapshot, and a fresh manager over the same directory starts
// with the identical registry before any supervisor runs.
func TestFleetStateRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.StateDir = dir
	cfg.JournalFlush = 10 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	m := New(cfg)
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	a := mustEPC(t, "30f4ab12cd0045e100000001")
	b := mustEPC(t, "30f4ab12cd0045e100000002")
	m.Registry().Observe("r0", core.Reading{EPC: a, Antenna: 1}, now)
	m.Registry().Observe("r0", core.Reading{EPC: b, Antenna: 2}, now)
	m.Registry().Observe("r1", core.Reading{EPC: b, Antenna: 1}, now.Add(time.Second)) // handoff
	m.Registry().UpdateAssessment("r1", b, true, 25)
	want := regJSON(t, m.Registry())
	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}

	m2 := New(cfg)
	if err := m2.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	if got := regJSON(t, m2.Registry()); got != want {
		t.Fatalf("restored registry differs:\n got %s\nwant %s", got, want)
	}
	st, ok := m2.Registry().Get(b)
	if !ok || !st.Mobile || st.IRR != 25 || st.Handoffs != 1 || st.Reader != "r1" {
		t.Fatalf("restored tag B: %+v", st)
	}
}

// TestFleetStateJournalSurvivesCrash exercises the machinery directly —
// no checkpoint goroutine, no timing: changes flushed to the journal
// but never snapshotted must survive a close-without-final-snapshot
// (the crash path), including drop tombstones and the drop-then-
// reobserve ordering where the fresh image must win on replay.
func TestFleetStateJournalSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.StateDir = dir

	a := mustEPC(t, "30f4ab12cd0045e100000010")
	b := mustEPC(t, "30f4ab12cd0045e100000011")
	old := time.Now().Add(-time.Hour)
	now := time.Now()

	// Incarnation 1: journal two tags, then crash (close with no
	// final flush or snapshot of anything still dirty).
	m := New(cfg)
	if err := m.openState(); err != nil {
		t.Fatal(err)
	}
	m.reg.Observe("r0", core.Reading{EPC: a, Antenna: 1}, old)
	m.reg.Observe("r0", core.Reading{EPC: b, Antenna: 2}, now)
	if err := m.store.Journal(m.reg); err != nil {
		t.Fatal(err)
	}
	m.reg.Observe("r0", core.Reading{EPC: b, Antenna: 3}, now) // dirty, never flushed
	if err := m.store.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: the flushed states are back, the unflushed update
	// is legitimately lost (it was never acked durable).
	m2 := New(cfg)
	if err := m2.openState(); err != nil {
		t.Fatal(err)
	}
	if m2.reg.Len() != 2 {
		t.Fatalf("recovered %d tags, want 2", m2.reg.Len())
	}
	if st, ok := m2.reg.Get(b); !ok || st.Antenna != 2 {
		t.Fatalf("tag B after crash: %+v (want flushed antenna 2)", st)
	}

	// Drop A, re-observe it fresh, flush: the batch carries the
	// tombstone before the new image.
	if n := m2.reg.Prune(now.Add(-30 * time.Minute)); n != 1 {
		t.Fatalf("pruned %d, want 1", n)
	}
	m2.reg.Observe("r1", core.Reading{EPC: a, Antenna: 4}, now)
	if err := m2.store.Journal(m2.reg); err != nil {
		t.Fatal(err)
	}
	if err := m2.store.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 3: replay lands on the fresh image — one read, new
	// reader — not the pre-drop history and not absence.
	m3 := New(cfg)
	if err := m3.openState(); err != nil {
		t.Fatal(err)
	}
	st, ok := m3.reg.Get(a)
	if !ok {
		t.Fatal("tag A vanished: drop tombstone replayed after its fresh image")
	}
	if st.Reads != 1 || st.Reader != "r1" || st.Antenna != 4 {
		t.Fatalf("tag A after drop+reobserve: %+v", st)
	}
	// A snapshot compacts the chain; a fourth incarnation restores from
	// it alone.
	if err := m3.store.Snapshot(m3.reg); err != nil {
		t.Fatal(err)
	}
	want := regJSON(t, m3.reg)
	if err := m3.store.Close(); err != nil {
		t.Fatal(err)
	}

	m4 := New(cfg)
	if err := m4.openState(); err != nil {
		t.Fatal(err)
	}
	defer m4.store.Close()
	if got := regJSON(t, m4.reg); got != want {
		t.Fatalf("snapshot restore differs:\n got %s\nwant %s", got, want)
	}
}

// snapshotHookFS runs hook whenever the store creates a snapshot's temp
// file: a point inside Store.Snapshot after the registry was copied.
type snapshotHookFS struct {
	statestore.FS
	hook func()
}

func (fs *snapshotHookFS) Create(name string) (statestore.File, error) {
	if fs.hook != nil && strings.HasSuffix(name, ".tmp") {
		fs.hook()
	}
	return fs.FS.Create(name)
}

// TestFleetStateSnapshotKeepsChangeDuringWrite observes a new tag while
// the snapshot is being written. The snapshot cannot hold it, so it must
// stay dirty for the next flush rather than be drained unwritten.
func TestFleetStateSnapshotKeepsChangeDuringWrite(t *testing.T) {
	hookFS := &snapshotHookFS{FS: statestore.OSFS{}}
	cfg := DefaultConfig()
	cfg.StateDir = t.TempDir()
	cfg.StateFS = hookFS
	early := mustEPC(t, "30f4ab12cd0045e100000020")
	late := mustEPC(t, "30f4ab12cd0045e100000021")

	m := New(cfg)
	if err := m.openState(); err != nil {
		t.Fatal(err)
	}
	m.reg.Observe("r0", core.Reading{EPC: early, Antenna: 1}, time.Now())
	hookFS.hook = func() {
		hookFS.hook = nil
		m.reg.Observe("r0", core.Reading{EPC: late, Antenna: 2}, time.Now())
	}
	if err := m.store.Snapshot(m.reg); err != nil {
		t.Fatal(err)
	}
	if hookFS.hook != nil {
		t.Fatal("the snapshot created no temp file")
	}
	if err := m.store.Journal(m.reg); err != nil {
		t.Fatal(err)
	}
	if err := m.store.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := New(cfg)
	if err := m2.openState(); err != nil {
		t.Fatal(err)
	}
	defer m2.store.Close()
	for _, code := range []epc.EPC{early, late} {
		if _, ok := m2.reg.Get(code); !ok {
			t.Errorf("tag %s lost across the snapshot", code)
		}
	}
}

// TestFleetStateSnapshotRacesFlush runs observations, journal flushes and
// snapshots concurrently, then reopens the store: the recovered registry
// must equal the live one. Neither a change made while a snapshot is
// written nor an image a flush drained before a snapshot may end up
// missing or stale on replay.
func TestFleetStateSnapshotRacesFlush(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StateDir = t.TempDir()
	m := New(cfg)
	if err := m.openState(); err != nil {
		t.Fatal(err)
	}
	codes := make([]epc.EPC, 16)
	for i := range codes {
		codes[i] = mustEPC(t, fmt.Sprintf("30f4ab12cd0045e1000001%02x", i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	wg.Add(2)
	go func() { // observer
		defer wg.Done()
		base := time.Now()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.reg.Observe("r0", core.Reading{EPC: codes[i%len(codes)], Antenna: 1 + i%4}, base.Add(time.Duration(i)*time.Millisecond))
		}
	}()
	go func() { // flusher
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.store.Journal(m.reg); err != nil {
				errc <- err
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := m.store.Snapshot(m.reg); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := m.store.Journal(m.reg); err != nil {
		t.Fatal(err)
	}
	want := regJSON(t, m.reg)
	if err := m.store.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := New(cfg)
	if err := m2.openState(); err != nil {
		t.Fatal(err)
	}
	defer m2.store.Close()
	if got := regJSON(t, m2.reg); got != want {
		t.Fatalf("recovered registry differs from the live one:\n got %s\nwant %s", got, want)
	}
}

// TestFleetStateGolden pins the bytes the checkpoint protocol writes for
// the registry: the snapshot image and the journal records of a fixed
// set of observations, a handoff, two assessments and a prune. A diff
// here is an on-disk format change, and state directories written
// before it would no longer restore. Every time is fixed.
func TestFleetStateGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StateDir = t.TempDir()
	m := New(cfg)
	if err := m.openState(); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 600, time.UTC)
	a := mustEPC(t, "30f4ab12cd0045e100000001")
	b := mustEPC(t, "30f4ab12cd0045e100000002")
	c := mustEPC(t, "30f4ab12cd0045e100000003")
	m.reg.Observe("r0", core.Reading{EPC: a, Antenna: 1, Time: 1500 * time.Millisecond}, t0)
	m.reg.Observe("r0", core.Reading{EPC: b, Antenna: 2, Time: 2 * time.Second}, t0.Add(time.Second))
	m.reg.Observe("r1", core.Reading{EPC: b, Antenna: 1, Time: 700 * time.Millisecond}, t0.Add(2*time.Second))
	m.reg.UpdateAssessment("r1", b, true, 25.5)
	m.reg.UpdateAssessment("r0", a, false, 3.25)
	m.reg.Observe("r0", core.Reading{EPC: c, Antenna: 4}, t0.Add(-time.Hour))
	if n := m.reg.Prune(t0.Add(-time.Minute)); n != 1 {
		t.Fatalf("pruned %d, want 1", n)
	}
	if err := m.store.Journal(m.reg); err != nil {
		t.Fatal(err)
	}
	m.store.Close()
	if err := m.openState(); err != nil { // the registry reloads its own journal
		t.Fatal(err)
	}
	journal := append(bytes.Join(m.store.Recovery().Records, []byte("\n")), '\n')
	if err := m.store.Snapshot(m.reg); err != nil {
		t.Fatal(err)
	}
	m.store.Close()
	st, err := statestore.Open(cfg.StateDir, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snapshot := st.Recovery().Snapshot

	for name, got := range map[string][]byte{"snapshot": snapshot, "journal": journal} {
		want, err := os.ReadFile("testdata/" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s bytes differ from testdata/%s.golden:\n got %s\nwant %s", name, name, got, want)
		}
	}
}
