package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/statestore"
)

// Fleet state persistence: the merged tag registry survives restarts.
// The statestore snapshot is a versioned JSON envelope of every tag
// state; between snapshots a journal of incremental records keeps the
// durable view within one flush interval of live. Records are absolute
// (a full TagState image or a drop tombstone), so replay is last-wins.

// fleetStateVersion is the registry snapshot format version.
const fleetStateVersion = 1

type fleetEnvelope struct {
	Version int        `json:"version"`
	Tags    []TagState `json:"tags"`
}

// fleetRecord is one incremental journal entry: Type "tag" carries a
// full state image, "drop" a departure tombstone.
type fleetRecord struct {
	Type  string    `json:"type"`
	State *TagState `json:"state,omitempty"`
	EPC   string    `json:"epc,omitempty"`
}

// openState opens the statestore and replays the recovered registry.
// Called by Start before any supervisor runs, so restored state is in
// place before the first observation merges.
func (m *Manager) openState() error {
	st, err := statestore.Open(m.cfg.StateDir, statestore.Options{Retain: m.cfg.StateRetain, FS: m.cfg.StateFS})
	if err != nil {
		return fmt.Errorf("fleet: open state dir: %w", err)
	}
	rec := st.Recovery()
	if rec.HasSnapshot {
		var env fleetEnvelope
		if err := json.Unmarshal(rec.Snapshot, &env); err != nil {
			st.Close()
			return fmt.Errorf("fleet: decode state snapshot (gen %d): %w", rec.SnapshotGen, err)
		}
		if env.Version != fleetStateVersion {
			st.Close()
			return fmt.Errorf("fleet: state snapshot version %d, want %d", env.Version, fleetStateVersion)
		}
		for _, ts := range env.Tags {
			if err := m.reg.Restore(ts); err != nil {
				st.Close()
				return err
			}
		}
	}
	for i, raw := range rec.Records {
		if err := m.applyRecord(raw); err != nil {
			st.Close()
			return fmt.Errorf("fleet: replay journal record %d/%d: %w", i+1, len(rec.Records), err)
		}
	}
	// Restored state is durable already; don't re-journal it.
	m.reg.DrainDirty()
	m.store = st
	return nil
}

// applyRecord replays one journal record into the registry.
func (m *Manager) applyRecord(raw []byte) error {
	var rec fleetRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("fleet: decode journal record: %w", err)
	}
	switch rec.Type {
	case "tag":
		if rec.State == nil {
			return errors.New("fleet: tag record without state payload")
		}
		return m.reg.Restore(*rec.State)
	case "drop":
		code, err := epc.Parse(rec.EPC)
		if err != nil {
			return fmt.Errorf("fleet: drop record EPC %q: %w", rec.EPC, err)
		}
		m.reg.Drop(code)
		return nil
	default:
		return fmt.Errorf("fleet: unknown journal record type %q", rec.Type)
	}
}

// flushJournal drains the registry's dirty set into the journal. On
// return with nil every change up to the drain is on stable storage.
func (m *Manager) flushJournal() error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	states, dropped := m.reg.DrainDirty()
	if len(states) == 0 && len(dropped) == 0 {
		return nil
	}
	recs := make([][]byte, 0, len(states)+len(dropped))
	// Drops first: a dropped-then-reobserved tag must replay as its
	// fresh image, not vanish.
	for _, code := range dropped {
		b, err := json.Marshal(fleetRecord{Type: "drop", EPC: code})
		if err != nil {
			return fmt.Errorf("fleet: marshal drop record: %w", err)
		}
		recs = append(recs, b)
	}
	for i := range states {
		b, err := json.Marshal(fleetRecord{Type: "tag", State: &states[i]})
		if err != nil {
			return fmt.Errorf("fleet: marshal tag record: %w", err)
		}
		recs = append(recs, b)
	}
	if err := m.store.AppendBatch(recs); err != nil {
		if errors.Is(err, statestore.ErrSnapshotNeeded) {
			// Re-anchor after a mid-chain recovery; the drained changes
			// are still live in the registry, so the snapshot covers them.
			return m.writeSnapshotLocked()
		}
		return err
	}
	return nil
}

// writeSnapshot persists the full registry as a new snapshot generation.
// It holds flushMu, so no journal flush can drain an image before the
// snapshot and append it after.
func (m *Manager) writeSnapshot() error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	return m.writeSnapshotLocked()
}

// writeSnapshotLocked is writeSnapshot for a caller that holds flushMu.
// It drains the dirty set before it copies the registry: every drained
// change is in the copy, and a change made after the drain stays dirty
// for the next flush to journal after this snapshot.
func (m *Manager) writeSnapshotLocked() error {
	m.reg.DrainDirty()
	env := fleetEnvelope{Version: fleetStateVersion, Tags: m.reg.Snapshot()}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(env); err != nil {
		return fmt.Errorf("fleet: encode state snapshot: %w", err)
	}
	return m.store.WriteSnapshot(buf.Bytes())
}

// checkpointLoop periodically journals dirty registry entries and writes
// full snapshots until the fleet shuts down. Persistence failures are
// published on the bus (the statestore poisons itself on write failure,
// so after the first error the loop reports rather than retries).
func (m *Manager) checkpointLoop(ctx context.Context) {
	flush := time.NewTicker(m.cfg.JournalFlush)
	defer flush.Stop()
	snap := time.NewTicker(m.cfg.SnapshotInterval)
	defer snap.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-flush.C:
			if err := m.flushJournal(); err != nil {
				m.publishStateError("journal flush", err)
			}
		case <-snap.C:
			if err := m.writeSnapshot(); err != nil {
				m.publishStateError("snapshot", err)
			}
		}
	}
}

// publishStateError surfaces a persistence failure as a fleet event.
func (m *Manager) publishStateError(op string, err error) {
	m.bus.Publish(Event{
		Type:  EventStateStore,
		At:    time.Now(),
		State: op,
		Error: err.Error(),
	})
}

// closeState writes the final flush + snapshot and closes the store —
// the save-on-SIGTERM path, run by Stop after every supervisor exited.
// Failures are both published on the bus (for live observers) and
// returned joined (so the process exit code can go unclean).
func (m *Manager) closeState() error {
	var errs []error
	if err := m.flushJournal(); err != nil {
		m.publishStateError("final flush", err)
		errs = append(errs, fmt.Errorf("fleet: final flush: %w", err))
	}
	if err := m.writeSnapshot(); err != nil {
		m.publishStateError("final snapshot", err)
		errs = append(errs, fmt.Errorf("fleet: final snapshot: %w", err))
	}
	if err := m.store.Close(); err != nil {
		m.publishStateError("close", err)
		errs = append(errs, fmt.Errorf("fleet: close state: %w", err))
	}
	return errors.Join(errs...)
}
