package replication

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"tagwatch/internal/chaos"
	"tagwatch/internal/statestore"
)

// The tests model the fleet's journal grammar with a tiny last-wins
// key/value scheme: records are JSON {"k","v"} pairs, snapshots are the
// JSON map. Replication correctness = the standby's folded store equals
// the primary's model, regardless of how the link behaved.

type kv struct {
	K string `json:"k"`
	V int    `json:"v"`
}

// appendKVs appends n updates over a small key space to the primary,
// mirroring them into model.
func appendKVs(t *testing.T, st *statestore.Store, model map[string]int, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		rec := kv{K: fmt.Sprintf("k%02d", i%17), V: i}
		model[rec.K] = rec.V
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
}

// snapshotModel writes the model as a primary snapshot generation.
func snapshotModel(t *testing.T, st *statestore.Store, model map[string]int) {
	t.Helper()
	b, err := json.Marshal(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(b); err != nil {
		t.Fatal(err)
	}
}

// foldDir opens a closed store directory and folds snapshot + journal
// into the last-wins map — what a promotion would restore.
func foldDir(t *testing.T, dir string) map[string]int {
	t.Helper()
	st, err := statestore.Open(dir, statestore.Options{})
	if err != nil {
		t.Fatalf("fold %s: %v", dir, err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	rec := st.Recovery()
	out := make(map[string]int)
	if rec.HasSnapshot {
		if err := json.Unmarshal(rec.Snapshot, &out); err != nil {
			t.Fatalf("fold %s: snapshot: %v", dir, err)
		}
	}
	for _, raw := range rec.Records {
		var r kv
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("fold %s: record: %v", dir, err)
		}
		out[r.K] = r.V
	}
	return out
}

func sameState(t *testing.T, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("state has %d keys, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("state[%s]=%d, want %d", k, got[k], v)
		}
	}
}

// harness runs one standby (listening on loopback) and one shipper over
// the primary store, with fast-failover timings for tests.
type harness struct {
	t       *testing.T
	standby *Standby
	shipper *Shipper
	cancel  context.CancelFunc
	done    chan struct{}
	addr    string
}

func startHarness(t *testing.T, primary *statestore.Store, standbyDir string, mut func(*Config, *StandbyConfig)) *harness {
	t.Helper()
	h, err := tryStartHarness(t, primary, standbyDir, mut)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// tryStartHarness surfaces a NewStandby failure to the caller — the
// crash sweep needs it, because an armed CrashFS can kill the standby
// during its initial store open.
func tryStartHarness(t *testing.T, primary *statestore.Store, standbyDir string, mut func(*Config, *StandbyConfig)) (*harness, error) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	scfg := StandbyConfig{Dir: standbyDir, FrameTimeout: 2 * time.Second, SessionTimeout: 3 * time.Second}
	cfg := Config{
		Peers:        []string{lis.Addr().String()},
		DialTimeout:  2 * time.Second,
		FrameTimeout: 2 * time.Second,
		Heartbeat:    10 * time.Millisecond,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		PrimaryID:    "test-primary",
	}
	if mut != nil {
		mut(&cfg, &scfg)
	}
	sb, err := NewStandby(lis, scfg)
	if err != nil {
		lis.Close()
		return nil, err
	}
	ship := NewShipper(primary, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	h := &harness{t: t, standby: sb, shipper: ship, cancel: cancel, done: make(chan struct{}), addr: lis.Addr().String()}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sb.Run(ctx) }()
	go func() { defer wg.Done(); ship.Run(ctx) }()
	go func() { wg.Wait(); close(h.done) }()
	return h, nil
}

// stop tears the harness down and waits until the standby released its
// store directory.
func (h *harness) stop() {
	h.t.Helper()
	h.cancel()
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		h.t.Fatal("harness did not shut down")
	}
}

func waitSynced(t *testing.T, s *Shipper) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitSynced(ctx); err != nil {
		t.Fatalf("replication never synced: %v (status %+v)", err, s.Status())
	}
}

func TestShipSnapshotAndRecords(t *testing.T) {
	primaryDir, standbyDir := t.TempDir(), t.TempDir()
	st, err := statestore.Open(primaryDir, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	model := make(map[string]int)
	appendKVs(t, st, model, 0, 40)
	snapshotModel(t, st, model)
	appendKVs(t, st, model, 40, 25)

	h := startHarness(t, st, standbyDir, nil)
	waitSynced(t, h.shipper)

	// More appends while live: the notify path, not just catch-up.
	appendKVs(t, st, model, 65, 25)
	waitSynced(t, h.shipper)

	status := h.standby.Status()
	h.stop()
	if status.Snapshots != 1 {
		t.Fatalf("standby applied %d snapshots, want 1 (status %+v)", status.Snapshots, status)
	}
	if status.Records == 0 {
		t.Fatal("standby applied no records")
	}
	sameState(t, foldDir(t, standbyDir), model)

	ps := h.shipper.Status()
	if len(ps) != 1 || ps[0].Snapshots != 1 || ps[0].Records == 0 {
		t.Fatalf("shipper status = %+v", ps)
	}
}

// TestSyncAfterSnapshotWithoutAppends: a snapshot rolls the primary's
// journal into a new, empty generation. A standby caught up at the end
// of the old generation must still be moved to the new committed cursor
// without waiting for the next append; otherwise a primary that goes
// quiet after a snapshot never reads synced.
func TestSyncAfterSnapshotWithoutAppends(t *testing.T) {
	primaryDir, standbyDir := t.TempDir(), t.TempDir()
	st, err := statestore.Open(primaryDir, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	model := make(map[string]int)
	appendKVs(t, st, model, 0, 20)
	h := startHarness(t, st, standbyDir, nil)
	waitSynced(t, h.shipper)

	snapshotModel(t, st, model)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.shipper.WaitSynced(ctx); err != nil {
		t.Fatalf("standby never reached the snapshot's empty generation: %v (status %+v)", err, h.shipper.Status())
	}
	h.stop()
	sameState(t, foldDir(t, standbyDir), model)
}

// TestLagKnownInGenerationZero is the regression test for the lag
// gauge's "unknown" sentinel: generation 0 is a legitimate generation
// for a young primary that has never snapshotted, so once heartbeats
// flow the standby must report a real (>= 0) lag, not -1.
func TestLagKnownInGenerationZero(t *testing.T) {
	primaryDir, standbyDir := t.TempDir(), t.TempDir()
	st, err := statestore.Open(primaryDir, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	model := make(map[string]int)
	appendKVs(t, st, model, 0, 10) // no snapshot: the primary stays in generation 0

	h := startHarness(t, st, standbyDir, nil)
	waitSynced(t, h.shipper)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if status := h.standby.Status(); status.LagBytes >= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag stayed unknown in generation 0 with heartbeats flowing: %+v", h.standby.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.stop()
	sameState(t, foldDir(t, standbyDir), model)
}

func TestResumeAfterPrimaryRestart(t *testing.T) {
	primaryDir, standbyDir := t.TempDir(), t.TempDir()
	st, err := statestore.Open(primaryDir, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	model := make(map[string]int)
	appendKVs(t, st, model, 0, 10)
	snapshotModel(t, st, model)

	h := startHarness(t, st, standbyDir, nil)
	waitSynced(t, h.shipper)
	h.stop()

	// A second shipper + second standby process over the same directories
	// and the same primary identity: the sidecar cursor must let the
	// stream resume without a second snapshot.
	appendKVs(t, st, model, 10, 10)
	h2 := startHarness(t, st, standbyDir, nil)
	waitSynced(t, h2.shipper)
	status := h2.standby.Status()
	h2.stop()
	if status.Snapshots != 0 {
		t.Fatalf("resumed session applied %d snapshots, want 0 (status %+v)", status.Snapshots, status)
	}
	sameState(t, foldDir(t, standbyDir), model)
}

// TestChaosLinkConverges is the armored-link proof: with corruption,
// resets, and truncations injected into every replication connection,
// the stream must still converge to the primary's exact state — via
// retries and snapshot resyncs, never via wrong bytes (every frame is
// CRC-checked, so corruption can only cost time).
func TestChaosLinkConverges(t *testing.T) {
	primaryDir, standbyDir := t.TempDir(), t.TempDir()
	st, err := statestore.Open(primaryDir, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	inj := chaos.New(chaos.Config{Seed: 42, CorruptProb: 0.1, ResetProb: 0.05, TruncateProb: 0.05})
	model := make(map[string]int)
	appendKVs(t, st, model, 0, 30)
	snapshotModel(t, st, model)

	h := startHarness(t, st, standbyDir, func(cfg *Config, _ *StandbyConfig) {
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return inj.Conn(conn), nil
		}
	})
	for round := 0; round < 10; round++ {
		appendKVs(t, st, model, 30+round*20, 20)
		if round%3 == 2 {
			snapshotModel(t, st, model)
		}
		// Sync every round: each round forces record/ack/heartbeat frames
		// through the degraded link, so the injector gets real traffic to
		// corrupt and the shipper gets real failures to retry through.
		waitSynced(t, h.shipper)
	}
	h.stop()
	sameState(t, foldDir(t, standbyDir), model)
	if s := inj.Stats(); s.Corruptions+s.Resets+s.Truncations == 0 {
		t.Fatalf("chaos injected nothing: %+v", s)
	}
}

// rawSession hand-rolls the primary side of the wire protocol against a
// live standby, for tests that need sessions to die at precise points
// the real Shipper never produces.
type rawSession struct {
	t    *testing.T
	conn net.Conn
}

func dialStandby(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &rawSession{t: t, conn: conn}
}

// hello sends the hello frame for identity id and returns the standby's
// cursor reply.
func (r *rawSession) hello(id string) cursorPayload {
	r.t.Helper()
	if err := writeJSONFrame(r.conn, 2*time.Second, fHello, helloPayload{Version: protocolVersion, Primary: id}); err != nil {
		r.t.Fatal(err)
	}
	typ, payload, err := readFrame(r.conn, 2*time.Second)
	if err != nil {
		r.t.Fatal(err)
	}
	if typ != fCursor {
		r.t.Fatalf("expected cursor frame, got type %d", typ)
	}
	var cur cursorPayload
	if err := json.Unmarshal(payload, &cur); err != nil {
		r.t.Fatal(err)
	}
	return cur
}

func (r *rawSession) send(typ byte, payload []byte) {
	r.t.Helper()
	if err := writeFrame(r.conn, 2*time.Second, typ, payload); err != nil {
		r.t.Fatal(err)
	}
}

// ack reads the standby's next ack frame and returns the applied cursor.
func (r *rawSession) ack() statestore.Cursor {
	r.t.Helper()
	typ, payload, err := readFrame(r.conn, 2*time.Second)
	if err != nil {
		r.t.Fatal(err)
	}
	if typ != fAck {
		r.t.Fatalf("expected ack frame, got type %d", typ)
	}
	c, err := decodeCursor(payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return c
}

func (r *rawSession) close() { r.conn.Close() }

// TestReanchorAdoptionDeferred is the regression test for the
// half-re-anchor hole: a standby holding primary A's cursor negotiates
// a Reset with primary B, and the session dies before B's anchor frame
// arrives. The standby must keep answering with A's identity — so B's
// next hello re-negotiates the Reset instead of resuming A's cursor
// against B's journal — and A itself must still be able to resume.
func TestReanchorAdoptionDeferred(t *testing.T) {
	dir := t.TempDir()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStandby(lis, StandbyConfig{Dir: dir, FrameTimeout: 2 * time.Second, SessionTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); sb.Run(ctx) }()
	defer func() { cancel(); <-done }()
	addr := lis.Addr().String()

	// Session 1: primary A anchors with a snapshot and ships a record.
	rec, err := json.Marshal(kv{K: "k00", V: 1})
	if err != nil {
		t.Fatal(err)
	}
	aCursor := statestore.Cursor{Gen: 3, Offset: int64(len(rec)) + 8}
	s1 := dialStandby(t, addr)
	if cur := s1.hello("primary-A"); !cur.Reset {
		t.Fatalf("fresh standby replied Reset=false: %+v", cur)
	}
	s1.send(fSnapshot, encodeSnapshot(3, []byte(`{"k17":9}`)))
	if got := s1.ack(); got.Gen != 3 {
		t.Fatalf("snapshot acked at %+v, want gen 3", got)
	}
	s1.send(fRecords, encodeRecords(aCursor, [][]byte{rec}))
	if got := s1.ack(); got != aCursor {
		t.Fatalf("records acked at %+v, want %+v", got, aCursor)
	}
	s1.close()

	// Session 2: primary B is told to Reset, then dies before anchoring.
	s2 := dialStandby(t, addr)
	if cur := s2.hello("primary-B"); !cur.Reset || cur.Primary != "primary-A" {
		t.Fatalf("new primary negotiation replied %+v, want Reset with primary-A's identity", cur)
	}
	s2.close()

	// Session 3: B again. Before the pending-adoption fix the standby had
	// already adopted B's identity in session 2, replied Reset=false, and
	// handed B primary A's cursor to resume — silent divergence.
	s3 := dialStandby(t, addr)
	if cur := s3.hello("primary-B"); !cur.Reset {
		t.Fatalf("half-re-anchored standby resumed the old primary's cursor for the new primary: %+v", cur)
	}
	// Records inside the pending window are a protocol violation: the
	// session must die without touching the store.
	s3.send(fRecords, encodeRecords(statestore.Cursor{Gen: 9, Offset: 1}, [][]byte{rec}))
	if _, _, err := readFrame(s3.conn, 2*time.Second); err == nil {
		t.Fatal("standby acked records sent before the re-anchor")
	}
	s3.close()

	// Session 4: A returns. Its history is untouched, so it resumes.
	s4 := dialStandby(t, addr)
	if cur := s4.hello("primary-A"); cur.Reset || cur.Gen != aCursor.Gen || cur.Offset != aCursor.Offset {
		t.Fatalf("original primary cannot resume its own cursor: %+v (want %+v)", cur, aCursor)
	}
	s4.close()

	// Session 5: B finally anchors; only now is its identity adopted.
	s5 := dialStandby(t, addr)
	if cur := s5.hello("primary-B"); !cur.Reset {
		t.Fatalf("expected Reset for primary-B, got %+v", cur)
	}
	s5.send(fSnapshot, encodeSnapshot(1, []byte(`{"k01":2}`)))
	if got := s5.ack(); got.Gen != 1 {
		t.Fatalf("snapshot acked at %+v, want gen 1", got)
	}
	s5.close()
	s6 := dialStandby(t, addr)
	if cur := s6.hello("primary-B"); cur.Reset || cur.Primary != "primary-B" || cur.Gen != 1 {
		t.Fatalf("anchored primary-B cannot resume: %+v", cur)
	}
	s6.close()
}

// TestStandbyCrashSweep drives the standby's apply path through a crash
// at every mutating filesystem operation (torn snapshot bodies, torn
// journal appends, skipped renames, a torn cursor sidecar) and asserts
// the directory always recovers — openable, and after a fresh standby
// session, exactly converged with the primary.
func TestStandbyCrashSweep(t *testing.T) {
	primaryDir := t.TempDir()
	st, err := statestore.Open(primaryDir, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	model := make(map[string]int)
	appendKVs(t, st, model, 0, 12)
	snapshotModel(t, st, model)
	appendKVs(t, st, model, 12, 12)

	// Disarmed run to count the standby's mutating ops.
	ops := func() int {
		dir := t.TempDir()
		cfs := statestore.NewCrashFS(statestore.OSFS{}, 1)
		h := startHarness(t, st, dir, func(_ *Config, scfg *StandbyConfig) { scfg.FS = cfs })
		waitSynced(t, h.shipper)
		h.stop()
		sameState(t, foldDir(t, dir), model)
		return cfs.Ops()
	}()
	if ops < 5 {
		t.Fatalf("implausibly few standby ops: %d", ops)
	}
	if testing.Short() {
		t.Skipf("skipping %d-point sweep in -short", ops)
	}

	for n := 0; n < ops; n++ {
		n := n
		t.Run(fmt.Sprintf("crash-at-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			cfs := statestore.NewCrashFS(statestore.OSFS{}, int64(100+n))
			cfs.CrashAt(n)
			h, err := tryStartHarness(t, st, dir, func(_ *Config, scfg *StandbyConfig) { scfg.FS = cfs })
			if err == nil {
				// Wait for the crash to fire (or for full sync when this
				// crash point lands after the workload's last op).
				deadline := time.Now().Add(20 * time.Second)
				for !cfs.Crashed() && !h.shipper.Synced() {
					if time.Now().After(deadline) {
						t.Fatal("neither crashed nor synced")
					}
					time.Sleep(time.Millisecond)
				}
				h.stop()
			} else if !cfs.Crashed() {
				// A startup failure must be the simulated crash, nothing else.
				t.Fatalf("standby failed to start without crashing: %v", err)
			}

			// The torn directory must recover like any crashed statestore.
			if _, err := statestore.Open(dir, statestore.Options{}); err != nil {
				t.Fatalf("crashed standby dir does not open: %v", err)
			}
			// Close it again before the fresh standby takes over.
			func() {
				st2, err := statestore.Open(dir, statestore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := st2.Close(); err != nil {
					t.Fatal(err)
				}
			}()

			// A fresh standby process over the same directory must converge:
			// resume when the cursor survived, wipe-and-resync when it did
			// not. Either way the end state is exact.
			h2 := startHarness(t, st, dir, nil)
			waitSynced(t, h2.shipper)
			h2.stop()
			sameState(t, foldDir(t, dir), model)
		})
	}
}
