package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tagwatch/internal/aloha"
	"tagwatch/internal/epc"
	"tagwatch/internal/llrp"
	"tagwatch/internal/schedule"
)

// LLRPDevice drives a reader over the LLRP wire protocol — the production
// transport of the paper's prototype (ImpinJ LTK → here our own LLRP
// client). Each ReadAll/ReadSelective call compiles to one ROSpec,
// executes it, and emits the report stream one RO_ACCESS_REPORT at a
// time until the ROSpec ends and its DELETE_ROSPEC has been answered.
// Before its first selective ROSpec, a device asks the reader once for
// its Select filter limit; a session that only reads everything never
// asks.
type LLRPDevice struct {
	// Conn is an established LLRP connection.
	Conn *llrp.Conn

	// phaseIDwell bounds the read-everything pass. The paper sizes Phase I
	// "dynamically depending on the total number of tags": over the wire
	// a duration trigger bounds it, resized after each pass (ReadAll).
	phaseIDwell time.Duration
	// maxFilters is the reader's MaxSelectFiltersPerQuery, 0 until asked.
	maxFilters int
	nextID     uint32
	base       uint64 // UTC µs of the first report; maps wire time to Duration
	latest     time.Duration
	discarded  atomic.Uint64
}

// The ROSpec parameters every LLRPDevice uses.
const (
	// firstPhaseIDwell bounds the first Phase I pass, before any
	// population is known.
	firstPhaseIDwell = 300 * time.Millisecond
	// maskSlice is the per-AISpec duration for each union of bitmasks in
	// Phase II.
	maskSlice = 100 * time.Millisecond
	// idleGap is the wall-clock silence after which the report stream of
	// a finished ROSpec is considered drained, for readers that send no
	// end events.
	idleGap = 150 * time.Millisecond
	// session and initialQ are forwarded in the C1G2 singulation control.
	session  = 1
	initialQ = 4
)

// NewLLRPDevice wraps a connection with the paper's defaults.
func NewLLRPDevice(conn *llrp.Conn) *LLRPDevice {
	return &LLRPDevice{Conn: conn, phaseIDwell: firstPhaseIDwell}
}

// Now implements Device: the latest device timestamp observed.
func (d *LLRPDevice) Now() time.Duration { return d.latest }

// ReadAll implements Device.
func (d *LLRPDevice) ReadAll(emit func([]Reading)) error {
	spec := d.buildSpec(nil, d.phaseIDwell, d.phaseIDwell)
	// The next pass's dwell tracks 1.5 × C(n) for the n distinct tags
	// seen, under the paper cost model, clamped to [100 ms, 2 s].
	distinct := make(map[epc.EPC]struct{})
	err := d.runSpec(spec, func(batch []Reading) {
		for _, r := range batch {
			distinct[r.EPC] = struct{}{}
		}
		emit(batch)
	})
	if n := len(distinct); n > 0 {
		dwell := 3 * aloha.PaperCostModel().Cost(n) / 2
		if dwell < 100*time.Millisecond {
			dwell = 100 * time.Millisecond
		}
		if dwell > 2*time.Second {
			dwell = 2 * time.Second
		}
		d.phaseIDwell = dwell
	}
	return err
}

// ReadSelective implements Device. A failure to learn the reader's
// filter limit fails the call like any other control operation.
func (d *LLRPDevice) ReadSelective(masks []schedule.Bitmask, dwell time.Duration, emit func([]Reading)) error {
	if len(masks) == 0 || dwell <= 0 {
		return nil
	}
	if d.maxFilters == 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		caps, err := d.Conn.GetCapabilities(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("get reader capabilities: %w", err)
		}
		d.maxFilters = max(1, int(caps.MaxSelectFiltersPerQuery)) // absent or 0 means 1
	}
	return d.runSpec(d.buildSpec(unions(masks, d.maxFilters), maskSlice, dwell), emit)
}

// buildSpec compiles groups of bitmasks into an ROSpec, cycling until
// the ROSpec duration elapses. Each group becomes one AISpec, §6's
// "second method", whose inventory carries one C1G2Filter per mask with
// the actions [Select/Unselect, Select/DoNothing, …]: the first filter
// selects its matches and unselects every other tag, each further one
// selects its own matches too, so the round reads the union. No groups
// build the read-everything spec.
func (d *LLRPDevice) buildSpec(groups [][]schedule.Bitmask, slice, total time.Duration) llrp.ROSpec {
	d.nextID++
	spec := llrp.ROSpec{
		ID: d.nextID,
		Boundary: llrp.ROBoundarySpec{
			StartTrigger: llrp.StartTriggerNull,
			StopTrigger:  llrp.StopTriggerDuration,
			DurationMS:   uint32(total / time.Millisecond),
		},
	}
	mkAISpec := func(filters []llrp.C1G2Filter) llrp.AISpec {
		return llrp.AISpec{
			AntennaIDs:  []uint16{0}, // all antennas
			StopTrigger: llrp.AISpecStopTrigger{Type: llrp.AIStopDuration, DurationMS: uint32(slice / time.Millisecond)},
			Inventories: []llrp.InventoryParameterSpec{{
				ID: 1,
				Commands: []llrp.C1G2InventoryCommand{{
					Session:  session,
					InitialQ: initialQ,
					Filters:  filters,
				}},
			}},
		}
	}
	if len(groups) == 0 {
		spec.AISpecs = []llrp.AISpec{mkAISpec(nil)}
		return spec
	}
	for _, g := range groups {
		filters := make([]llrp.C1G2Filter, len(g))
		for i, m := range g {
			filters[i] = llrp.C1G2Filter{
				Mask: llrp.C1G2TagInventoryMask{
					MemBank: epc.BankEPC,
					Pointer: uint16(epc.EPCWordOffset + m.Pointer),
					Mask:    m.Mask,
				},
				UnawareAction: llrp.ActionSelectDoNothing,
			}
		}
		filters[0].UnawareAction = llrp.ActionSelectUnselect
		spec.AISpecs = append(spec.AISpecs, mkAISpec(filters))
	}
	return spec
}

// runSpec installs, runs and ends one ROSpec, emitting each
// RO_ACCESS_REPORT of this spec as it arrives. The error reports
// transport failure — control operations rejected or timed out, the
// final delete included, or the connection dying mid-spec — after
// whatever reports arrived first were emitted. A clean end (end event
// or idle gap) is not an error.
func (d *LLRPDevice) runSpec(spec llrp.ROSpec, emit func([]Reading)) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Conn.AddROSpec(ctx, spec); err != nil {
		return fmt.Errorf("add ROSpec %d: %w", spec.ID, err)
	}
	// report converts and emits one RO_ACCESS_REPORT; the conn drops
	// empty ones. A tag report naming another ROSpec is a straggler of
	// an earlier spec: it is counted and never emitted, so it cannot
	// land in this phase. ROSpecID 0 means the reader did not say, and
	// the report belongs to the open spec.
	var buf []Reading
	report := func(batch []llrp.TagReportData) {
		buf = buf[:0]
		for _, tr := range batch {
			if tr.ROSpecID != 0 && tr.ROSpecID != spec.ID {
				d.discarded.Add(1)
				continue
			}
			buf = append(buf, d.toReading(tr))
		}
		if len(buf) > 0 {
			emit(buf)
		}
	}
	err := d.await(ctx, spec.ID, report)
	if err != nil && d.Conn.Err() != nil {
		return err // the connection died: nothing is left to delete on
	}
	if derr := d.deleteSpec(ctx, spec.ID, report); derr != nil {
		err = errors.Join(err, fmt.Errorf("delete ROSpec %d: %w", spec.ID, derr))
	}
	return err
}

// await enables and starts the installed spec and emits its reports
// until the reader ends it: on its ROSpecEnded event, or after an idle
// gap for readers that send no end events.
func (d *LLRPDevice) await(ctx context.Context, id uint32, report func([]llrp.TagReportData)) error {
	if err := d.Conn.EnableROSpec(ctx, id); err != nil {
		return fmt.Errorf("enable ROSpec %d: %w", id, err)
	}
	if err := d.Conn.StartROSpec(ctx, id); err != nil {
		return fmt.Errorf("start ROSpec %d: %w", id, err)
	}
	// connErr shapes the connection's terminal error once the report
	// stream closes under us.
	connErr := func() error {
		if err := d.Conn.Err(); err != nil {
			return fmt.Errorf("connection died mid-ROSpec: %w", err)
		}
		return fmt.Errorf("report stream closed mid-ROSpec")
	}
	deadline := time.After(30 * time.Second)
	for {
		select {
		case batch, ok := <-d.Conn.Reports():
			if !ok {
				return connErr()
			}
			report(batch)
		case ev, ok := <-d.Conn.Events():
			if !ok {
				return connErr()
			}
			// Reports still in flight behind the end event are collected
			// by the delete that follows.
			if ev.ROSpec != nil && ev.ROSpec.Type == llrp.ROSpecEnded && ev.ROSpec.ROSpecID == id {
				return nil
			}
		case <-time.After(idleGap):
			// Fallback for readers that do not send end events. A stop
			// failure here means the link is gone, not merely quiet.
			if err := d.Conn.StopROSpec(ctx, id); err != nil {
				return fmt.Errorf("stop ROSpec %d after idle gap: %w", id, err)
			}
			return nil
		case <-deadline:
			// tagwatchvet(deverr): the stop failure is evidence too — it
			// distinguishes "reader wedged but link alive" from "link dead".
			stopErr := d.Conn.StopROSpec(ctx, id)
			return errors.Join(fmt.Errorf("ROSpec %d overran the 30s guard", id), stopErr)
		}
	}
}

// deleteSpec deletes the spec, and its response is the barrier that
// ends it: the conn dispatches frames in wire order, so once the
// DELETE_ROSPEC response is in, every report the reader sent before it
// is queued on Reports(). Reports are emitted while the round trip is
// in flight, because a full channel would block the conn's read loop
// and with it the response; what is queued afterwards is taken without
// waiting.
func (d *LLRPDevice) deleteSpec(ctx context.Context, id uint32, report func([]llrp.TagReportData)) error {
	done := make(chan error, 1)
	go func() { done <- d.Conn.DeleteROSpec(ctx, id) }()
	reports := d.Conn.Reports()
	for {
		select {
		case batch, ok := <-reports:
			if !ok {
				reports = nil // closed: the delete fails on the dead conn
				continue
			}
			report(batch)
		case err := <-done:
			for {
				select {
				case batch, ok := <-reports:
					if !ok {
						return err
					}
					report(batch)
				default:
					return err
				}
			}
		}
	}
}

// Discarded reports how many tag reports named another ROSpec than the
// open one and were dropped. Safe to call from any goroutine.
func (d *LLRPDevice) Discarded() uint64 { return d.discarded.Load() }

// toReading converts a wire tag report into the middleware reading.
func (d *LLRPDevice) toReading(tr llrp.TagReportData) Reading {
	if d.base == 0 || tr.FirstSeenUTC < d.base {
		d.base = tr.FirstSeenUTC
	}
	t := time.Duration(tr.FirstSeenUTC-d.base) * time.Microsecond
	if t > d.latest {
		d.latest = t
	}
	return Reading{
		EPC:      tr.EPC,
		Time:     t,
		Antenna:  int(tr.AntennaID),
		Channel:  int(tr.ChannelIndex) - 1, // wire is 1-based
		PhaseRad: tr.PhaseRadians(),
		RSSdBm:   float64(tr.PeakRSSIdBm),
	}
}
