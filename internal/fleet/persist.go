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

// Fleet state persistence: the merged tag registry is the statestore
// Engine fleetd checkpoints, so it survives restarts. The snapshot image
// is a versioned JSON envelope of every tag state; between snapshots a
// journal of incremental records keeps the durable view within one
// flush interval of live. Records are absolute (a full TagState image or
// a drop tombstone), so replay is last-wins.

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

// Image encodes every tag state as the snapshot envelope.
func (g *Registry) Image() ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(fleetEnvelope{Version: fleetStateVersion, Tags: g.Snapshot()}); err != nil {
		return nil, fmt.Errorf("fleet: encode state snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Changes drains the dirty set as journal records. Drops come first: a
// dropped-then-reobserved tag must replay as its fresh image, not
// vanish.
func (g *Registry) Changes() ([][]byte, error) {
	states, dropped := g.DrainDirty()
	recs := make([][]byte, 0, len(states)+len(dropped))
	for _, code := range dropped {
		b, err := json.Marshal(fleetRecord{Type: "drop", EPC: code})
		if err != nil {
			return nil, fmt.Errorf("fleet: marshal drop record: %w", err)
		}
		recs = append(recs, b)
	}
	for i := range states {
		b, err := json.Marshal(fleetRecord{Type: "tag", State: &states[i]})
		if err != nil {
			return nil, fmt.Errorf("fleet: marshal tag record: %w", err)
		}
		recs = append(recs, b)
	}
	return recs, nil
}

// RestoreImage installs every tag state of a snapshot envelope. Every
// EPC is checked before the first tag is installed.
func (g *Registry) RestoreImage(payload []byte) error {
	var env fleetEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return fmt.Errorf("fleet: decode state snapshot: %w", err)
	}
	if env.Version != fleetStateVersion {
		return fmt.Errorf("fleet: state snapshot version %d, want %d", env.Version, fleetStateVersion)
	}
	for _, ts := range env.Tags {
		if _, err := epc.Parse(ts.EPC); err != nil {
			return fmt.Errorf("fleet: restore tag %q: %w", ts.EPC, err)
		}
	}
	for _, ts := range env.Tags {
		if err := g.Restore(ts); err != nil {
			return err
		}
	}
	return nil
}

// ApplyRecord replays one journal record into the registry.
func (g *Registry) ApplyRecord(raw []byte) error {
	var rec fleetRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("fleet: decode journal record: %w", err)
	}
	switch rec.Type {
	case "tag":
		if rec.State == nil {
			return errors.New("fleet: tag record without state payload")
		}
		return g.Restore(*rec.State)
	case "drop":
		code, err := epc.Parse(rec.EPC)
		if err != nil {
			return fmt.Errorf("fleet: drop record EPC %q: %w", rec.EPC, err)
		}
		g.Drop(code)
		return nil
	default:
		return fmt.Errorf("fleet: unknown journal record type %q", rec.Type)
	}
}

// openState opens the statestore and restores the registry from it.
// Called by Start before any supervisor runs, so restored state is in
// place before the first observation merges.
func (m *Manager) openState() error {
	st, err := statestore.Open(m.cfg.StateDir, statestore.Options{Retain: m.cfg.StateRetain, FS: m.cfg.StateFS})
	if err != nil {
		return fmt.Errorf("fleet: open state dir: %w", err)
	}
	if err := st.Restore(m.reg); err != nil {
		st.Close()
		return err
	}
	m.store = st
	return nil
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
			if err := m.store.Journal(m.reg); err != nil {
				m.publishStateError("journal flush", err)
			}
		case <-snap.C:
			if err := m.store.Snapshot(m.reg); err != nil {
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
	if err := m.store.Journal(m.reg); err != nil {
		m.publishStateError("final flush", err)
		errs = append(errs, fmt.Errorf("fleet: final flush: %w", err))
	}
	if err := m.store.Snapshot(m.reg); err != nil {
		m.publishStateError("final snapshot", err)
		errs = append(errs, fmt.Errorf("fleet: final snapshot: %w", err))
	}
	if err := m.store.Close(); err != nil {
		m.publishStateError("close", err)
		errs = append(errs, fmt.Errorf("fleet: close state: %w", err))
	}
	return errors.Join(errs...)
}
