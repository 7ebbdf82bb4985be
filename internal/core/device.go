// Package core implements the Tagwatch middleware itself: the two-phase
// rate-adaptive reading controller of §3 that sits between a Gen2 reader
// and upper applications.
//
// Each cycle runs Phase I (inventory everything briefly, assess motion
// from RF phase via the motion package) and Phase II (cover the mobile and
// pinned tags with Select bitmasks via the schedule package, then read
// only them for the dwell window). All readings from both phases are
// delivered upstream and feed the self-learning immobility models. They
// stream: the device hands over each inventory round (or, over LLRP,
// each RO_ACCESS_REPORT) as soon as it has it, and the cycle records,
// delivers and assesses that batch before it takes the next, so a
// subscriber sees a reading when its round ends, not when its phase does.
//
// The controller drives an abstract Device, with two implementations: a
// direct binding to the reader simulator (SimDevice, used by experiments
// and benchmarks) and an LLRP client binding (LLRPDevice, used by the
// tagwatchd daemon against a real or emulated reader over TCP).
package core

import (
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/reader"
	"tagwatch/internal/schedule"
)

// Reading is one tag observation as the middleware sees it, regardless of
// transport.
type Reading struct {
	EPC      epc.EPC
	Time     time.Duration // device-virtual timestamp
	Antenna  int
	Channel  int
	PhaseRad float64
	RSSdBm   float64
}

// Device is the reader abstraction Tagwatch drives.
//
// Readings are pushed, not returned: both read methods hand each batch to
// emit as soon as the device has it — one inventory round, or one
// RO_ACCESS_REPORT over the wire — and every batch is delivered before
// the call returns. Batches are never empty. The slice is valid only
// during the emit call; the device may reuse it for the next batch.
//
// Failures are first-class: a dying transport must be distinguishable
// from an empty RF field, so both read methods return an error when the
// transport fails. Batches emitted before the failure are real
// observations and have already gone upstream; the error tells the cycle
// pipeline to degrade instead of concluding "0 tags present".
type Device interface {
	// ReadAll performs one full inventory pass over every antenna — the
	// Phase I read and the "reading all" baseline.
	ReadAll(emit func([]Reading)) error
	// ReadSelective cycles selective inventory rounds over the given
	// bitmasks for the dwell window, reading only covered tags.
	ReadSelective(masks []schedule.Bitmask, dwell time.Duration, emit func([]Reading)) error
	// Now reports the device clock (virtual for the simulator).
	Now() time.Duration
}

// dwellReader is a device that runs the read-all fallback natively,
// budgeting each round to end on the dwell; RunCycle repeats full
// ReadAll passes on any other device.
type dwellReader interface {
	readAllFor(dwell time.Duration, emit func([]Reading))
}

// SimDevice binds the middleware directly to the reader simulator.
type SimDevice struct {
	R *reader.Reader

	buf []Reading // the batch handed to emit, reused round to round
}

// NewSimDevice wraps a simulator reader.
func NewSimDevice(r *reader.Reader) *SimDevice { return &SimDevice{R: r} }

// Now implements Device.
func (d *SimDevice) Now() time.Duration { return d.R.Now() }

// round runs one inventory round and emits what it read.
func (d *SimDevice) round(opts reader.RoundOpts, emit func([]Reading)) {
	reads, _ := d.R.RunRound(opts)
	if len(reads) == 0 {
		return
	}
	d.buf = d.buf[:0]
	for _, r := range reads {
		d.buf = append(d.buf, Reading{
			EPC: r.EPC, Time: r.Time, Antenna: r.Antenna,
			Channel: r.Channel, PhaseRad: r.PhaseRad, RSSdBm: r.RSSdBm,
		})
	}
	emit(d.buf)
}

// ReadAll implements Device: one round per antenna in port order. The
// in-process simulator cannot fail, so the error is always nil.
func (d *SimDevice) ReadAll(emit func([]Reading)) error {
	for _, ant := range d.R.Scene().Antennas {
		d.round(reader.RoundOpts{Antenna: ant.ID}, emit)
	}
	return nil
}

// ReadSelective implements Device: masks run round-robin, one selective
// round per antenna each, until the dwell window is exhausted — the
// "multiple AISpecs" execution of §6.
func (d *SimDevice) ReadSelective(masks []schedule.Bitmask, dwell time.Duration, emit func([]Reading)) error {
	if len(masks) == 0 || dwell <= 0 {
		return nil
	}
	deadline := d.R.Now() + dwell
	for {
		for _, m := range masks {
			cmd := m.SelectCmd()
			for _, ant := range d.R.Scene().Antennas {
				remaining := deadline - d.R.Now()
				if remaining <= 0 {
					return nil
				}
				d.round(reader.RoundOpts{Antenna: ant.ID, Filter: &cmd, Budget: remaining}, emit)
			}
		}
	}
}

// ReadAllFor keeps running full inventory passes until the dwell window is
// exhausted — the read-all fallback of §3 ("switch back to the old
// fashion") and the baseline arm of the experiments.
func (d *SimDevice) ReadAllFor(dwell time.Duration) []Reading {
	var out []Reading
	d.readAllFor(dwell, func(batch []Reading) { out = append(out, batch...) })
	return out
}

// readAllFor is ReadAllFor emitting round by round.
func (d *SimDevice) readAllFor(dwell time.Duration, emit func([]Reading)) {
	deadline := d.R.Now() + dwell
	for d.R.Now() < deadline {
		for _, ant := range d.R.Scene().Antennas {
			remaining := deadline - d.R.Now()
			if remaining <= 0 {
				break
			}
			d.round(reader.RoundOpts{Antenna: ant.ID, Budget: remaining}, emit)
		}
	}
}
