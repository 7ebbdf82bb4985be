package core

import (
	"context"
	"errors"
	"fmt"
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
// time until the ROSpec ends.
type LLRPDevice struct {
	// Conn is an established LLRP connection.
	Conn *llrp.Conn
	// PhaseIDwell bounds the read-everything pass (the paper sizes Phase I
	// "dynamically on the total number of tags"; over the wire we bound it
	// with a duration trigger).
	PhaseIDwell time.Duration
	// MaskSlice is the per-AISpec duration for each bitmask in Phase II.
	MaskSlice time.Duration
	// IdleGap is the wall-clock silence after which the report stream of a
	// finished ROSpec is considered drained.
	IdleGap time.Duration
	// Session/InitialQ are forwarded in the C1G2 singulation control.
	Session  uint8
	InitialQ uint8
	// AdaptPhaseI resizes the Phase I dwell from the last observed
	// population: the paper sizes Phase I "dynamically depending on the
	// total number of tags". The dwell tracks 1.5 × C(n) under the paper
	// cost model, clamped to [100 ms, 2 s].
	AdaptPhaseI bool

	nextID uint32
	base   uint64 // UTC µs of the first report; maps wire time to Duration
	latest time.Duration
}

// NewLLRPDevice wraps a connection with the paper's defaults.
func NewLLRPDevice(conn *llrp.Conn) *LLRPDevice {
	return &LLRPDevice{
		Conn:        conn,
		PhaseIDwell: 300 * time.Millisecond,
		MaskSlice:   100 * time.Millisecond,
		IdleGap:     150 * time.Millisecond,
		Session:     1,
		InitialQ:    4,
		AdaptPhaseI: true,
	}
}

// Now implements Device: the latest device timestamp observed.
func (d *LLRPDevice) Now() time.Duration { return d.latest }

// ReadAll implements Device.
func (d *LLRPDevice) ReadAll(emit func([]Reading)) error {
	spec := d.buildSpec(nil, d.PhaseIDwell, d.PhaseIDwell)
	if !d.AdaptPhaseI {
		return d.runSpec(spec, emit)
	}
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
		d.PhaseIDwell = dwell
	}
	return err
}

// ReadSelective implements Device.
func (d *LLRPDevice) ReadSelective(masks []schedule.Bitmask, dwell time.Duration, emit func([]Reading)) error {
	if len(masks) == 0 || dwell <= 0 {
		return nil
	}
	return d.runSpec(d.buildSpec(masks, d.MaskSlice, dwell), emit)
}

// buildSpec compiles bitmasks into an ROSpec: one AISpec per bitmask
// (§6's "we adopt the second method by default"), cycling until the
// ROSpec duration elapses.
func (d *LLRPDevice) buildSpec(masks []schedule.Bitmask, slice, total time.Duration) llrp.ROSpec {
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
					Session:  d.Session,
					InitialQ: d.InitialQ,
					Filters:  filters,
				}},
			}},
		}
	}
	if len(masks) == 0 {
		spec.AISpecs = []llrp.AISpec{mkAISpec(nil)}
		return spec
	}
	for _, m := range masks {
		spec.AISpecs = append(spec.AISpecs, mkAISpec([]llrp.C1G2Filter{{
			Mask: llrp.C1G2TagInventoryMask{
				MemBank: epc.BankEPC,
				Pointer: uint16(epc.EPCWordOffset + m.Pointer),
				Mask:    m.Mask,
			},
		}}))
	}
	return spec
}

// runSpec installs, runs and drains one ROSpec, then deletes it,
// emitting each RO_ACCESS_REPORT as it arrives. The error reports
// transport failure — control operations rejected or timed out, or the
// connection dying mid-spec — after whatever reports arrived first were
// emitted. A clean drain (end event or idle gap) is not an error.
func (d *LLRPDevice) runSpec(spec llrp.ROSpec, emit func([]Reading)) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Conn.AddROSpec(ctx, spec); err != nil {
		return fmt.Errorf("add ROSpec %d: %w", spec.ID, err)
	}
	defer d.Conn.DeleteROSpec(ctx, spec.ID)
	if err := d.Conn.EnableROSpec(ctx, spec.ID); err != nil {
		return fmt.Errorf("enable ROSpec %d: %w", spec.ID, err)
	}
	if err := d.Conn.StartROSpec(ctx, spec.ID); err != nil {
		return fmt.Errorf("start ROSpec %d: %w", spec.ID, err)
	}
	idle := d.IdleGap
	if idle <= 0 {
		idle = 150 * time.Millisecond
	}
	// connErr shapes the connection's terminal error once the report
	// stream closes under us.
	connErr := func() error {
		if err := d.Conn.Err(); err != nil {
			return fmt.Errorf("connection died mid-ROSpec: %w", err)
		}
		return fmt.Errorf("report stream closed mid-ROSpec")
	}
	// report converts and emits one RO_ACCESS_REPORT; the conn drops
	// empty ones.
	var buf []Reading
	report := func(batch []llrp.TagReportData) {
		buf = buf[:0]
		for _, tr := range batch {
			buf = append(buf, d.toReading(tr))
		}
		emit(buf)
	}
	deadline := time.After(30 * time.Second)
	drain := func(gap time.Duration) {
		for {
			select {
			case batch, ok := <-d.Conn.Reports():
				if !ok {
					return
				}
				report(batch)
			case <-time.After(gap):
				return
			}
		}
	}
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
			// The reader notifies when a duration-triggered ROSpec ends:
			// drain in-flight reports briefly and return without waiting
			// out the idle gap.
			if ev.ROSpec != nil && ev.ROSpec.Type == llrp.ROSpecEnded && ev.ROSpec.ROSpecID == spec.ID {
				drain(20 * time.Millisecond)
				return nil
			}
		case <-time.After(idle):
			// Fallback for readers that do not send end events. A stop
			// failure here means the link is gone, not merely quiet.
			if err := d.Conn.StopROSpec(ctx, spec.ID); err != nil {
				return fmt.Errorf("stop ROSpec %d after idle gap: %w", spec.ID, err)
			}
			return nil
		case <-deadline:
			// tagwatchvet(deverr): the stop failure is evidence too — it
			// distinguishes "reader wedged but link alive" from "link dead".
			stopErr := d.Conn.StopROSpec(ctx, spec.ID)
			return errors.Join(fmt.Errorf("ROSpec %d overran the 30s guard", spec.ID), stopErr)
		}
	}
}

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
