package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"tagwatch/internal/epc"
	"tagwatch/internal/motion"
)

// State persistence for the middleware: Tagwatch is the statestore
// Engine that tagwatchd checkpoints. Two payloads exist:
//
//   - The image: a versioned JSON envelope bundling the motion
//     detector's learned models with the pinned set and the lifetime
//     metrics.
//
//   - Journal records (Record): small JSON documents describing one
//     incremental change each, appended to a statestore journal between
//     snapshots. Every record is absolute (a full per-link stack image,
//     the full pin list, a forget tombstone), so replay is last-wins
//     and tolerant of duplicated delivery.

// stateVersion is the image envelope version.
const stateVersion = 2

// stateEnvelope is the snapshot image document.
type stateEnvelope struct {
	Version int             `json:"version"`
	Motion  json.RawMessage `json:"motion"`
	Pinned  []string        `json:"pinned,omitempty"`
	Metrics Metrics         `json:"metrics"`
}

// Record is one incremental journal entry. Exactly one payload field is
// set, selected by Type:
//
//	"link"   — Link holds a full immobility-stack image for one
//	           (tag, antenna, channel); replay replaces that link.
//	"pins"   — Pins holds the complete pinned set; replay replaces it.
//	"forget" — EPC names a departed tag; replay drops all its state.
type Record struct {
	Type string            `json:"type"`
	Link *motion.LinkState `json:"link,omitempty"`
	Pins []string          `json:"pins,omitempty"`
	EPC  string            `json:"epc,omitempty"`
}

// Image encodes the middleware's durable state — learned immobility
// models, the pinned set, and lifetime metrics — as a versioned envelope.
func (tw *Tagwatch) Image() ([]byte, error) {
	var mbuf bytes.Buffer
	if err := tw.det.Save(&mbuf); err != nil {
		return nil, err
	}
	env := stateEnvelope{
		Version: stateVersion,
		Motion:  json.RawMessage(bytes.TrimSpace(mbuf.Bytes())),
		Pinned:  tw.pinnedList(),
		Metrics: tw.Metrics(),
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(env); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// pinnedList returns the pinned set as sorted EPC strings, nil when
// empty.
func (tw *Tagwatch) pinnedList() []string {
	if len(tw.pinned) == 0 {
		return nil
	}
	pins := make([]string, 0, len(tw.pinned))
	for code := range tw.pinned {
		pins = append(pins, code.String())
	}
	sort.Strings(pins)
	return pins
}

// RestoreImage loads an image written by Image. Validation is
// all-or-nothing: a corrupt image leaves the middleware untouched.
func (tw *Tagwatch) RestoreImage(data []byte) error {
	var env stateEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("core: decode state: %w", err)
	}
	if env.Version != stateVersion {
		return fmt.Errorf("core: state version %d, want %d", env.Version, stateVersion)
	}

	// Validate everything before mutating anything.
	pinned, err := parsePins(env.Pinned)
	if err != nil {
		return err
	}
	if err := tw.det.Load(bytes.NewReader(env.Motion)); err != nil {
		return err
	}
	tw.pinned = pinned
	tw.pinsDirty = false
	tw.metricsMu.Lock()
	tw.metrics = env.Metrics
	tw.metricsMu.Unlock()
	return nil
}

func parsePins(pins []string) (map[epc.EPC]bool, error) {
	out := make(map[epc.EPC]bool, len(pins))
	for _, p := range pins {
		code, err := epc.Parse(p)
		if err != nil {
			return nil, fmt.Errorf("core: pinned EPC %q: %w", p, err)
		}
		out[code] = true
	}
	return out, nil
}

// Changes drains every state change since the previous drain as
// marshalled journal records. Order within the batch matters and is
// already correct: forget tombstones first (so a forgotten-then-
// reobserved tag loses its stale links before the fresh one is
// reinstated), then link images, then the pin set. An empty slice means
// nothing changed.
func (tw *Tagwatch) Changes() ([][]byte, error) {
	links, forgotten := tw.det.DrainChanges()
	var recs [][]byte
	add := func(r Record) error {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("core: marshal journal record: %w", err)
		}
		recs = append(recs, b)
		return nil
	}
	for _, tag := range forgotten {
		if err := add(Record{Type: "forget", EPC: tag}); err != nil {
			return nil, err
		}
	}
	for i := range links {
		if err := add(Record{Type: "link", Link: &links[i]}); err != nil {
			return nil, err
		}
	}
	if tw.pinsDirty {
		pins := tw.pinnedList()
		if pins == nil {
			pins = []string{} // distinguish "empty set" from "field absent"
		}
		if err := add(Record{Type: "pins", Pins: pins}); err != nil {
			return nil, err
		}
		tw.pinsDirty = false
	}
	return recs, nil
}

// ApplyRecord replays one journal record produced by Changes.
// A record that fails validation is rejected without mutating anything.
func (tw *Tagwatch) ApplyRecord(data []byte) error {
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("core: decode journal record: %w", err)
	}
	switch rec.Type {
	case "link":
		if rec.Link == nil {
			return fmt.Errorf("core: link record without link payload")
		}
		return tw.det.RestoreLink(*rec.Link)
	case "pins":
		pinned, err := parsePins(rec.Pins)
		if err != nil {
			return err
		}
		tw.pinned = pinned
		return nil
	case "forget":
		code, err := epc.Parse(rec.EPC)
		if err != nil {
			return fmt.Errorf("core: forget record EPC %q: %w", rec.EPC, err)
		}
		tw.det.Forget(code)
		return nil
	default:
		return fmt.Errorf("core: unknown journal record type %q", rec.Type)
	}
}
