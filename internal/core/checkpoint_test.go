package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"tagwatch/internal/motion"
	"tagwatch/internal/statestore"
)

// TestCheckpointerRoundTripWithRestart is the kill-and-restart
// acceptance test on the happy path: run cycles under the store's
// checkpoint protocol (snapshot mid-run, journal tail after it, a
// forget-and-relearn in the middle), close, and restore into a fresh
// middleware. The restored learned state must be byte-identical.
func TestCheckpointerRoundTripWithRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := statestore.Open(dir, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tw, _, movers, static := paperRig(t, 91, 6, 1, 0)
	if err := st.Restore(tw); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		tw.RunCycle()
		switch i {
		case 1:
			tw.Pin(movers[0])
		case 2:
			// Departed tag: tombstone goes to the journal; the tag is
			// still in the scene, so cycle 3 relearns it and the same
			// batch carries tombstone-then-fresh-link.
			tw.Detector().Forget(static[1])
		case 4:
			tw.Pin(static[0])
			tw.Unpin(movers[0])
		}
		checkpoint := st.Journal
		if i == 3 {
			checkpoint = st.Snapshot
		}
		if err := checkpoint(tw); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	var want bytes.Buffer
	if err := tw.det.Save(&want); err != nil {
		t.Fatal(err)
	}
	wantPins := tw.pinnedList()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := statestore.Open(dir, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if !rec.HasSnapshot {
		t.Fatal("no snapshot recovered")
	}
	if len(rec.Records) == 0 {
		t.Fatal("no journal tail recovered — replay path not exercised")
	}
	tw2, _, _, _ := paperRig(t, 91, 6, 1, 0)
	if err := st2.Restore(tw2); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tw2.det.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("restored learned state differs from the pre-restart state")
	}
	if gotPins := tw2.pinnedList(); strings.Join(gotPins, ",") != strings.Join(wantPins, ",") {
		t.Fatalf("restored pins %v, want %v", gotPins, wantPins)
	}
	// Metrics travel in snapshots only: the restored counters are the
	// ones frozen at the snapshot (cycle 4), not the journal tail's.
	if c := tw2.Metrics().Cycles; c != 4 {
		t.Fatalf("restored metrics cycles = %d, want 4", c)
	}
	// Restored state must not be re-journaled as if freshly dirtied.
	recs, err := tw2.Changes()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("restore left %d records dirty", len(recs))
	}
	// And the resumed middleware keeps running and checkpointing.
	tw2.RunCycle()
	if err := st2.Journal(tw2); err != nil {
		t.Fatal(err)
	}
}

// engineTrace is the durability bookkeeping of one engine workload run:
// every link image and pin list emitted to the store, and the floor —
// the latest of each that was ACKED before the crash.
type engineTrace struct {
	emitted         map[string][]string // link key -> normalized images, emit order
	ackedIdx        map[string]int      // link key -> floor index into emitted
	pinsSeq         []string            // emitted pin lists (joined)
	ackedPin        int                 // floor index into pinsSeq; -1 none
	ackedSnapCycles int                 // Metrics.Cycles at the last acked snapshot
	cycles          int
}

// linkNorm returns a link's identity key and its image with LastSeen
// zeroed (LastSeen is per-tag, so a later drain of a sibling link
// legitimately advances it; mode state must still match exactly).
func linkNorm(ls motion.LinkState) (string, string) {
	k := fmt.Sprintf("%s/%d/%d", ls.EPC, ls.Antenna, ls.Channel)
	ls.LastSeen = 0
	b, err := json.Marshal(ls)
	if err != nil {
		panic(err)
	}
	return k, string(b)
}

// recordingEngine is a middleware whose drained changes are kept, so a
// workload knows which images each checkpoint carried.
type recordingEngine struct {
	*Tagwatch
	drained [][]byte
}

func (e *recordingEngine) Changes() ([][]byte, error) {
	recs, err := e.Tagwatch.Changes()
	e.drained = append(e.drained, recs...)
	return recs, err
}

// runEngineWorkload drives a deterministic middleware + store script
// until it finishes or the filesystem crashes, tracking the durability
// floor. The rig, the cycle sequence, and therefore every emitted record
// are identical across runs — only the crash point varies.
func runEngineWorkload(t *testing.T, fsys statestore.FS, dir string) engineTrace {
	t.Helper()
	tr := engineTrace{
		emitted:  map[string][]string{},
		ackedIdx: map[string]int{},
		ackedPin: -1,
	}
	st, err := statestore.Open(dir, statestore.Options{FS: fsys, Retain: 2})
	if err != nil {
		return tr
	}
	defer st.Close()

	tw, _, movers, static := paperRig(t, 91, 6, 1, 0)
	tw.cfg.DepartAfter = 0 // keep link histories monotone for the sweep
	eng := &recordingEngine{Tagwatch: tw}
	for i := 0; i < 10; i++ {
		tw.RunCycle()
		tr.cycles++
		switch i {
		case 2:
			tw.Pin(movers[0])
		case 5:
			tw.Pin(static[0])
		case 6:
			tw.Unpin(movers[0])
		}

		// Snapshot cycle: the drained records are covered by the
		// snapshot, and success acks the entire current state.
		snap := i%4 == 3
		eng.drained = nil
		checkpoint := st.Journal
		if snap {
			checkpoint = st.Snapshot
		}
		err := checkpoint(eng)
		batchLinks := map[string]int{}
		batchPin := -1
		for _, raw := range eng.drained {
			var rec Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatal(err)
			}
			switch rec.Type {
			case "link":
				k, body := linkNorm(*rec.Link)
				tr.emitted[k] = append(tr.emitted[k], body)
				batchLinks[k] = len(tr.emitted[k]) - 1
			case "pins":
				tr.pinsSeq = append(tr.pinsSeq, strings.Join(rec.Pins, ","))
				batchPin = len(tr.pinsSeq) - 1
			}
		}
		if err != nil {
			return tr
		}
		if snap {
			for k, versions := range tr.emitted {
				tr.ackedIdx[k] = len(versions) - 1
			}
			if len(tr.pinsSeq) > 0 {
				tr.ackedPin = len(tr.pinsSeq) - 1
			}
			tr.ackedSnapCycles = tw.Metrics().Cycles
			continue
		}
		for k, idx := range batchLinks {
			tr.ackedIdx[k] = idx
		}
		if batchPin >= 0 {
			tr.ackedPin = batchPin
		}
	}
	return tr
}

// verifyEngineRecovered restores the crashed directory into a fresh
// middleware and checks the durability floor: every acked link image is
// recovered at its acked version or a later emitted one, nothing
// recovered was never emitted, the pin set is at or past its acked
// value, and metrics are at or past the last acked snapshot.
func verifyEngineRecovered(t *testing.T, dir string, tr engineTrace, label string) {
	t.Helper()
	st, err := statestore.Open(dir, statestore.Options{})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer st.Close()
	tw, _, _, _ := paperRig(t, 91, 6, 1, 0)
	if err := st.Restore(tw); err != nil {
		t.Fatalf("%s: restore surfaced corrupt state: %v", label, err)
	}

	var buf bytes.Buffer
	if err := tw.det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Stacks []motion.LinkState `json:"stacks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	restored := map[string]string{}
	for _, ls := range snap.Stacks {
		k, body := linkNorm(ls)
		restored[k] = body
	}

	for k, floor := range tr.ackedIdx {
		body, ok := restored[k]
		if !ok {
			t.Fatalf("%s: acked link %s lost", label, k)
		}
		found := false
		for _, v := range tr.emitted[k][floor:] {
			if v == body {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: link %s recovered at a pre-ack or corrupt version", label, k)
		}
	}
	for k, body := range restored {
		found := false
		for _, v := range tr.emitted[k] {
			if v == body {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: recovered link %s was never emitted", label, k)
		}
	}

	pins := strings.Join(tw.pinnedList(), ",")
	okPins := tr.ackedPin < 0 && pins == ""
	start := tr.ackedPin
	if start < 0 {
		start = 0
	}
	for _, p := range tr.pinsSeq[start:] {
		if p == pins {
			okPins = true
		}
	}
	if !okPins {
		t.Fatalf("%s: recovered pins %q below acked floor (seq %v, acked %d)",
			label, pins, tr.pinsSeq, tr.ackedPin)
	}

	if c := tw.Metrics().Cycles; c < tr.ackedSnapCycles || c > tr.cycles {
		t.Fatalf("%s: recovered metrics cycles = %d, acked floor %d, ceiling %d",
			label, c, tr.ackedSnapCycles, tr.cycles)
	}
}

// TestCrashEngineRestartSweep is the tentpole proof at the engine layer:
// the full middleware-over-statestore pipeline is killed at every
// filesystem mutation in turn — mid-append, mid-snapshot, mid-rename —
// and each time a fresh middleware restores from the wreckage with every
// durably-acked GMM mode, pin, and counter intact.
func TestCrashEngineRestartSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep re-runs the engine workload per op")
	}
	dry := statestore.NewCrashFS(statestore.OSFS{}, 0)
	runEngineWorkload(t, dry, t.TempDir())
	total := dry.Ops()
	if total < 20 {
		t.Fatalf("engine workload issued only %d fs ops", total)
	}
	for op := 0; op < total; op++ {
		dir := t.TempDir()
		cfs := statestore.NewCrashFS(statestore.OSFS{}, int64(op)*31+7)
		cfs.CrashAt(op)
		tr := runEngineWorkload(t, cfs, dir)
		if !cfs.Crashed() {
			t.Fatalf("op %d: workload finished without crashing", op)
		}
		verifyEngineRecovered(t, dir, tr, fmt.Sprintf("op %d", op))
	}
}

// TestCheckpointGolden pins the bytes the checkpoint protocol writes for
// the middleware: the snapshot image and the journal records of a fixed
// rig after a pin and a forget. A diff here is an on-disk format change,
// and state directories written before it would no longer restore. The
// wall-clock schedule cost is zeroed so the image repeats.
func TestCheckpointGolden(t *testing.T) {
	tw, _, movers, static := paperRig(t, 91, 6, 1, 0)
	for i := 0; i < 3; i++ {
		tw.RunCycle()
	}
	tw.Pin(movers[0])
	tw.Detector().Forget(static[1])
	tw.metricsMu.Lock()
	tw.metrics.ScheduleCostTotal = 0
	tw.metricsMu.Unlock()

	dir := t.TempDir()
	open := func() *statestore.Store {
		st, err := statestore.Open(dir, statestore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	if err := st.Journal(tw); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st = open()
	journal := append(bytes.Join(st.Recovery().Records, []byte("\n")), '\n')
	if err := st.Snapshot(tw); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st = open()
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
