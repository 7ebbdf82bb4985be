package statestore

import (
	"errors"
	"fmt"
)

// Engine is learned state that a Store checkpoints. The store never
// reads the payloads; the engine alone defines their grammar (see
// core.Tagwatch and fleet.Registry).
type Engine interface {
	// Image encodes the engine's full state as a snapshot payload.
	Image() ([]byte, error)
	// Changes drains every change made since the previous drain as
	// journal records, in replay order. The drain is destructive: a
	// drained change is no longer marked, but it is still in the live
	// state, so a later Image covers it.
	Changes() ([][]byte, error)
	// RestoreImage loads a snapshot payload into a freshly built
	// engine. A payload it rejects leaves the engine unchanged.
	RestoreImage(payload []byte) error
	// ApplyRecord replays one journal record. A record it rejects
	// leaves the engine unchanged.
	ApplyRecord(record []byte) error
}

// Restore loads what Open recovered into e: the snapshot, then every
// journal record in order. Replayed state is durable already, so the
// change set the replay leaves behind is dropped rather than journaled
// again. Call it before e changes for the first time.
func (s *Store) Restore(e Engine) error {
	rec := s.Recovery()
	if rec.HasSnapshot {
		if err := e.RestoreImage(rec.Snapshot); err != nil {
			return fmt.Errorf("statestore: restore snapshot (gen %d): %w", rec.SnapshotGen, err)
		}
	}
	for i, r := range rec.Records {
		if err := e.ApplyRecord(r); err != nil {
			return fmt.Errorf("statestore: replay journal record %d/%d: %w", i+1, len(rec.Records), err)
		}
	}
	_, err := e.Changes()
	return err
}

// Journal appends e's drained changes with one fsync. A nil return acks
// every drained change as durable. When the store refuses appends
// because recovery stopped mid-chain (ErrSnapshotNeeded), Journal writes
// a snapshot instead: the drained changes are still in e's live state,
// so the snapshot covers them.
//
// Journal and Snapshot are serialised. A Journal that finds nothing to
// drain returns only after a concurrent one has appended what it
// drained, and no Journal appends a change older than a snapshot after
// that snapshot.
func (s *Store) Journal(e Engine) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	recs, err := e.Changes()
	if err != nil || len(recs) == 0 {
		return err
	}
	if err := s.AppendBatch(recs); !errors.Is(err, ErrSnapshotNeeded) {
		return err
	}
	return s.snapshotLocked(e)
}

// Snapshot writes e's full state as a new snapshot generation. It drains
// e's changes before it takes the image, so every change drained before
// the image is in the image, and a change made after the drain stays
// marked for the next Journal, which lands after this snapshot.
func (s *Store) Snapshot(e Engine) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.snapshotLocked(e)
}

// snapshotLocked is Snapshot for a caller that holds ckptMu.
func (s *Store) snapshotLocked(e Engine) error {
	if _, err := e.Changes(); err != nil {
		return err
	}
	img, err := e.Image()
	if err != nil {
		return err
	}
	return s.WriteSnapshot(img)
}
