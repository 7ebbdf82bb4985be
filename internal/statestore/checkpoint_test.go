package statestore

import (
	"errors"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// kvEngine is a key=value Engine: its image is sorted "k=v" lines and a
// record is one "k=v". Replaying a record marks the key changed, the way
// a replayed tombstone does in core, so Restore must drop that change.
type kvEngine struct {
	state map[string]string
	dirty map[string]bool
	// afterImage runs once after the next image is copied: a change made
	// while the snapshot is being written.
	afterImage func()
}

func newKV() *kvEngine {
	return &kvEngine{state: map[string]string{}, dirty: map[string]bool{}}
}

func (e *kvEngine) set(k, v string) {
	e.state[k] = v
	e.dirty[k] = true
}

func (e *kvEngine) Image() ([]byte, error) {
	var lines []string
	for k, v := range e.state {
		lines = append(lines, k+"="+v)
	}
	sort.Strings(lines)
	if f := e.afterImage; f != nil {
		e.afterImage = nil
		f()
	}
	return []byte(strings.Join(lines, "\n")), nil
}

func (e *kvEngine) Changes() ([][]byte, error) {
	var keys []string
	for k := range e.dirty {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var recs [][]byte
	for _, k := range keys {
		recs = append(recs, []byte(k+"="+e.state[k]))
	}
	e.dirty = map[string]bool{}
	return recs, nil
}

func (e *kvEngine) RestoreImage(payload []byte) error {
	state := map[string]string{}
	for _, line := range strings.Split(string(payload), "\n") {
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return errors.New("kv: bad image line")
		}
		state[k] = v
	}
	e.state = state
	return nil
}

func (e *kvEngine) ApplyRecord(record []byte) error {
	k, v, ok := strings.Cut(string(record), "=")
	if !ok {
		return errors.New("kv: bad record")
	}
	e.set(k, v)
	return nil
}

func (e *kvEngine) String() string {
	img, _ := e.Image()
	return string(img)
}

// restoreKV reopens the store and restores it into a fresh engine.
func restoreKV(t *testing.T, st *Store) (*Store, *kvEngine) {
	t.Helper()
	st = reopen(t, st, Options{})
	e := newKV()
	if err := st.Restore(e); err != nil {
		t.Fatal(err)
	}
	return st, e
}

// TestCheckpointRoundTrip journals, snapshots and journals again, then
// restores into a fresh engine: the state must match and the replay
// must leave nothing to journal.
func TestCheckpointRoundTrip(t *testing.T) {
	st := openT(t, t.TempDir(), Options{})
	e := newKV()
	e.set("a", "1")
	e.set("b", "1")
	if err := st.Journal(e); err != nil {
		t.Fatal(err)
	}
	e.set("a", "2")
	if err := st.Snapshot(e); err != nil {
		t.Fatal(err)
	}
	e.set("c", "3")
	if err := st.Journal(e); err != nil {
		t.Fatal(err)
	}
	if err := st.Journal(e); err != nil { // nothing drained: no record
		t.Fatal(err)
	}
	want := e.String()

	st, got := restoreKV(t, st)
	defer st.Close()
	if rec := st.Recovery(); !rec.HasSnapshot || len(rec.Records) != 1 {
		t.Fatalf("recovered snapshot %v and %d records, want the snapshot and 1 record", rec.HasSnapshot, len(rec.Records))
	}
	if got.String() != want {
		t.Fatalf("restored %q, want %q", got, want)
	}
	if len(got.dirty) != 0 {
		t.Fatalf("restore left %d changes to journal again", len(got.dirty))
	}
}

// TestJournalReanchorsAfterMidChainTear: when recovery stopped mid-chain
// the store refuses appends, and Journal writes a snapshot instead. The
// changes it drained are in that snapshot.
func TestJournalReanchorsAfterMidChainTear(t *testing.T) {
	st := openT(t, t.TempDir(), Options{})
	mustAppend(t, st, "x=1", "y=1")
	if err := st.WriteSnapshot([]byte("x=1\ny=1")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "z=1")
	dir := st.Dir()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(dir, "wal-00000000.twj"), recHeaderLen)
	corruptFile(t, filepath.Join(dir, "snap-00000001.tws"), -1)

	st = openT(t, dir, Options{})
	e := newKV()
	if err := st.Restore(e); err != nil {
		t.Fatal(err)
	}
	if !st.Recovery().ReplayStopped {
		t.Fatal("the tear must stop replay mid-chain")
	}
	e.set("a", "1")
	if err := st.Journal(e); err != nil {
		t.Fatalf("journal after a mid-chain tear: %v", err)
	}
	e.set("b", "2")
	if err := st.Journal(e); err != nil {
		t.Fatal(err)
	}

	st, got := restoreKV(t, st)
	defer st.Close()
	if rec := st.Recovery(); !rec.HasSnapshot || string(rec.Snapshot) != "a=1" {
		t.Fatalf("Journal must re-anchor with a snapshot holding its drained change: %+v", rec)
	}
	if got.String() != "a=1\nb=2" {
		t.Fatalf("restored %q", got)
	}
}

// TestSnapshotDrainsBeforeImage: a change drained by the snapshot is in
// its image and is not journaled again; a change made while the image is
// written stays marked and reaches the journal after the snapshot.
func TestSnapshotDrainsBeforeImage(t *testing.T) {
	st := openT(t, t.TempDir(), Options{})
	e := newKV()
	e.set("early", "1")
	e.afterImage = func() { e.set("late", "1") }
	if err := st.Snapshot(e); err != nil {
		t.Fatal(err)
	}
	if len(e.dirty) != 1 || !e.dirty["late"] {
		t.Fatalf("after the snapshot %v is marked, want only late", e.dirty)
	}
	if err := st.Journal(e); err != nil {
		t.Fatal(err)
	}

	st, got := restoreKV(t, st)
	defer st.Close()
	if err := recordsEqual(st.Recovery(), "late=1"); err != nil {
		t.Fatal(err)
	}
	if got.String() != "early=1\nlate=1" {
		t.Fatalf("restored %q", got)
	}
}

// TestRestoreRejectsBadState: a payload the engine rejects fails Restore
// with the generation or record position named.
func TestRestoreRejectsBadState(t *testing.T) {
	st := openT(t, t.TempDir(), Options{})
	if err := st.WriteSnapshot([]byte("no separator")); err != nil {
		t.Fatal(err)
	}
	st = reopen(t, st, Options{})
	if err := st.Restore(newKV()); err == nil || !strings.Contains(err.Error(), "gen 1") {
		t.Fatalf("bad snapshot: %v", err)
	}
	if err := st.WriteSnapshot([]byte("a=1")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "b=1", "bad")
	st = reopen(t, st, Options{})
	defer st.Close()
	if err := st.Restore(newKV()); err == nil || !strings.Contains(err.Error(), "record 2/2") {
		t.Fatalf("bad record: %v", err)
	}
}
