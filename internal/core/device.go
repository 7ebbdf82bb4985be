// Package core implements the Tagwatch middleware itself: the two-phase
// rate-adaptive reading controller of §3 that sits between a Gen2 reader
// and upper applications.
//
// Each cycle runs Phase I (inventory everything briefly, assess motion
// from RF phase via the motion package) and Phase II (cover the mobile and
// pinned tags with Select bitmasks via the schedule package, then read
// only them for the dwell window). All readings from both phases are
// delivered upstream and feed the self-learning immobility models. They
// stream: the device hands over each report as the reader sends it (in
// the simulator, every reportEvery reads and at each round's end; over
// LLRP, each RO_ACCESS_REPORT as it arrives), and the cycle records,
// delivers and assesses that batch before it takes the next, so an
// in-process subscriber sees a reading by the eighth read after it or
// the end of its round, not when its phase ends.
//
// Phase II runs the plan's masks as unions: one inventory round carries
// up to F of them, where F is the Select filter limit the device reports,
// so each round pays the start-up cost τ₀ once for F masks.
//
// The controller drives an abstract Device, with two implementations: a
// direct binding to the reader simulator (SimDevice, used by experiments
// and benchmarks) and an LLRP client binding (LLRPDevice, used by the
// tagwatchd daemon against a real or emulated reader over TCP).
package core

import (
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/gen2"
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
// emit as soon as the device has it — at most reportEvery reads in the
// simulator, or one RO_ACCESS_REPORT over the wire — and every batch is
// delivered before the call returns. Batches are never empty. The slice
// is valid only during the emit call; the device may reuse it for the
// next batch.
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
	// bitmasks for the dwell window, reading only covered tags. The
	// masks, in order, are grouped into unions of up to the device's
	// Select filter limit, one inventory round per group.
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

// reportEvery is how many reads SimDevice hands over at most in one
// batch. The simulator reports like a reader whose ROReportSpec asks for
// a report every N tags or at the end of each inventory round: a report
// never waits on more than N singulations, however many masks its round
// carries, so fusing masks into longer rounds does not make readings
// older. One report per round would: on the Fig. 18 rig, two masks per
// round raise the median reading age from about 10 ms to about 16 ms.
const reportEvery = 8

// SimDevice binds the middleware directly to the reader simulator.
type SimDevice struct {
	R *reader.Reader

	buf []Reading // the batch handed to emit, reused report to report
}

// NewSimDevice wraps a simulator reader.
func NewSimDevice(r *reader.Reader) *SimDevice { return &SimDevice{R: r} }

// Now implements Device.
func (d *SimDevice) Now() time.Duration { return d.R.Now() }

// round runs one inventory round and emits its reads as reports: each
// reportEvery-th read is emitted with the ones before it as it is
// singulated, and the rest when the round ends.
func (d *SimDevice) round(opts reader.RoundOpts, emit func([]Reading)) {
	d.buf = d.buf[:0]
	d.R.RunRound(opts, func(r reader.TagRead) {
		d.buf = append(d.buf, Reading{
			EPC: r.EPC, Time: r.Time, Antenna: r.Antenna,
			Channel: r.Channel, PhaseRad: r.PhaseRad, RSSdBm: r.RSSdBm,
		})
		if len(d.buf) == reportEvery {
			emit(d.buf)
			d.buf = d.buf[:0]
		}
	})
	if len(d.buf) > 0 {
		emit(d.buf)
	}
}

// ReadAll implements Device: one round per antenna in port order. The
// in-process simulator cannot fail, so the error is always nil.
func (d *SimDevice) ReadAll(emit func([]Reading)) error {
	for _, ant := range d.R.Scene().Antennas {
		d.round(reader.RoundOpts{Antenna: ant.ID}, emit)
	}
	return nil
}

// ReadSelective implements Device: the masks, in plan order, form unions
// of up to the reader's MaxSelectFilters, and the unions run round-robin,
// one selective round per antenna each, until the dwell window is
// exhausted. With a limit of 1 this is the "multiple AISpecs" execution
// of §6, one round per mask.
func (d *SimDevice) ReadSelective(masks []schedule.Bitmask, dwell time.Duration, emit func([]Reading)) error {
	if len(masks) == 0 || dwell <= 0 {
		return nil
	}
	cmds := make([]gen2.SelectCmd, len(masks))
	for i, m := range masks {
		cmds[i] = m.SelectCmd() // assert SL on a match: the Selects unite
	}
	groups := unions(cmds, d.R.Config().MaxSelectFilters)
	deadline := d.R.Now() + dwell
	for {
		for _, g := range groups {
			for _, ant := range d.R.Scene().Antennas {
				remaining := deadline - d.R.Now()
				if remaining <= 0 {
					return nil
				}
				d.round(reader.RoundOpts{Antenna: ant.ID, Filters: g, Budget: remaining}, emit)
			}
		}
	}
}

// unions splits s, in order, into groups of at most limit elements: the
// masks that share one inventory round. A limit below 1 means 1.
func unions[T any](s []T, limit int) [][]T {
	limit = max(limit, 1)
	groups := make([][]T, 0, (len(s)+limit-1)/limit)
	for len(s) > limit {
		groups = append(groups, s[:limit:limit])
		s = s[limit:]
	}
	return append(groups, s)
}

// ReadAllFor keeps running full inventory passes until the dwell window is
// exhausted — the read-all fallback of §3 ("switch back to the old
// fashion") and the baseline arm of the experiments.
func (d *SimDevice) ReadAllFor(dwell time.Duration) []Reading {
	var out []Reading
	d.readAllFor(dwell, func(batch []Reading) { out = append(out, batch...) })
	return out
}

// readAllFor is ReadAllFor emitting report by report.
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
