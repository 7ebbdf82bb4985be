// Package scenario is the workload factory: a declarative Spec describes a
// tagged facility — population size and churn, mover fraction, category
// structure, gate geometry, arrival process — and compiles into the two
// artifacts the rest of the repo consumes:
//
//   - a Compiled timeline of per-gate reading cycles, the input to the
//     replay daemon (cmd/replayd), the gauntlet, the Fig. 3/4 experiment
//     and the CSV generator (cmd/tracegen), and
//   - an internal/scene world for simulator-driven experiments.
//
// The paper's evidence is exactly one such scenario — the TrackPoint
// sorting facility of §2.4, where parked parcels starve crossing ones —
// built in as the trackpoint pack; Spec.RateAdaptive replays any pack
// under the paper's policy instead. The rest of the catalog generalises
// it: warehouse cross-docks, airport baggage routes, hospital asset
// tracking, and retail exit-gate rushes, each with calibrated mover
// fractions and churn. Populations are category-structured ("A
// Near-Optimal Category Information Sampling in RFID Systems",
// arXiv:2406.10347): every category owns an EPC prefix, so apps can query
// category counts without enumerating EPCs, and the packs sweep
// population churn far past the paper's 527 tags ("An Improved AFSA
// Algorithm", arXiv:1405.6217).
//
// Everything here is seeded and deterministic: no wall clock, no global
// RNG (enforced by tagwatchvet's simclock analyzer — this package is in
// its restricted set). The same (Spec, seed) pair compiles to a
// byte-identical timeline on every machine.
package scenario

import (
	"fmt"
	"time"

	"tagwatch/internal/aloha"
	"tagwatch/internal/rf"
)

// Category is one slice of the population with its own dwell behaviour.
// Categories are what applications aggregate over (count pallets, not
// EPCs); each category owns a distinct EPC header byte so membership is
// recoverable from the code itself.
type Category struct {
	// Name labels the category in reports.
	Name string
	// Weight is the category's relative share of the population (weights
	// need not sum to 1; they are normalised).
	Weight float64
	// ParkProb is the probability a tag of this category parks in range of
	// its final gate instead of leaving.
	ParkProb float64
	// MeanDwell is the mean parked dwell before departure (exponential).
	MeanDwell time.Duration
	// GammaAlpha shapes the parked coupling γ ∈ (0,1]: γ = u^GammaAlpha for
	// uniform u, so large values skew toward weak coupling (marginal range)
	// with a heavy right tail of strongly-coupled bays — the paper's
	// "tag #271" mechanism.
	GammaAlpha float64
}

// Gate is one reader with its antenna geometry. A tag "at" a gate is in
// that reader's RF field and contends for its channel.
type Gate struct {
	// Reader names the gate's reader (the fleet registry's reader key).
	Reader string
	// Antennas is the number of antenna ports (1-based IDs, as LLRP).
	Antennas int
	// Center is the gate's position; antennas spread along x around it.
	Center rf.Point
	// Spacing is the antenna spacing in metres (default 0.5).
	Spacing float64
}

// Arrival tunes the arrival process of the flowing population.
type Arrival struct {
	// BatchMean is the mean batch size: parcels reach a gate on shared
	// trays/carts, so tens can be in flight at once (minimum 1).
	BatchMean float64
	// RushAt, when positive, concentrates arrivals in a triangular burst
	// peaking at this fraction of the duration (the retail closing-time
	// rush); zero spreads batches uniformly.
	RushAt float64
	// RushWidth is the burst half-width as a fraction of the duration
	// (default 0.25 when RushAt is set).
	RushWidth float64
}

// Spec declaratively describes a workload. Compile turns it into a
// timeline; BuildScene derives the simulator world.
type Spec struct {
	// Name identifies the scenario (pack names are kebab-case).
	Name string
	// Description is a one-line catalog entry.
	Description string

	// Duration is the virtual length of the scenario.
	Duration time.Duration
	// Step is the simulation resolution (default 1s).
	Step time.Duration
	// Cycle is the assessment-cycle window: each gate emits one CycleEvent
	// (readings + mobility verdicts + summary) per window (default 2s).
	Cycle time.Duration

	// Population is the number of distinct flowing tags that arrive over
	// the duration and follow Route through the gates.
	Population int
	// Residents is the number of tags parked in range from t=0 (warehouse
	// stock, hospital assets); they churn between gates per MoverFraction.
	Residents int
	// MoverFraction is the target fraction of residents in motion at any
	// instant; it calibrates how often a resident relocates to another
	// gate. Ignored when Residents is zero.
	MoverFraction float64

	// CrossTime is the mean transit through one gate's field (jittered
	// ±50% per crossing).
	CrossTime time.Duration
	// TransitTime is the mean gap between consecutive gates on the route
	// (no reader sees the tag in between).
	TransitTime time.Duration

	// Arrival shapes the flowing population's arrival process.
	Arrival Arrival
	// Cost converts concurrent in-range population into per-tag reading
	// rate (zero value defaults to the paper's R420 constants).
	Cost aloha.CostModel

	// Categories partition the population (at least one required).
	Categories []Category
	// Gates lists the readers (at least one required).
	Gates []Gate
	// Route is the ordered gate-index path flowing tags take. Required
	// when Population > 0.
	Route []int

	// RateAdaptive replays the facility under Tagwatch's policy instead of
	// reading all: at each gate the crossing tags share what Phase I
	// leaves of the channel among themselves, and a parked tag is read
	// about once per assessment cycle. This is the paper's counterfactual
	// (§2.4): a crossing parcel should be read ≈50 times, and is, once the
	// parked population stops hogging the channel. False, the default,
	// compiles the read-all timeline.
	RateAdaptive bool
}

// Validate rejects specs that would compile to degenerate or
// non-deterministic timelines. The zero values of Step, Cycle, Cost,
// Arrival.BatchMean, and Gate.Spacing are defaulted, not rejected.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %s: non-positive duration %v", s.Name, s.Duration)
	}
	if s.Step < 0 || s.Cycle < 0 {
		return fmt.Errorf("scenario %s: negative step/cycle", s.Name)
	}
	if s.Population < 0 || s.Residents < 0 {
		return fmt.Errorf("scenario %s: negative population", s.Name)
	}
	if s.Population+s.Residents == 0 {
		return fmt.Errorf("scenario %s: empty population", s.Name)
	}
	if s.MoverFraction < 0 || s.MoverFraction > 1 {
		return fmt.Errorf("scenario %s: mover fraction %v outside [0,1]", s.Name, s.MoverFraction)
	}
	if s.CrossTime <= 0 {
		return fmt.Errorf("scenario %s: non-positive cross time %v", s.Name, s.CrossTime)
	}
	if s.TransitTime < 0 {
		return fmt.Errorf("scenario %s: negative transit time %v", s.Name, s.TransitTime)
	}
	if len(s.Categories) == 0 {
		return fmt.Errorf("scenario %s: no categories", s.Name)
	}
	if len(s.Categories) > 16 {
		return fmt.Errorf("scenario %s: %d categories exceed the EPC header space (16)", s.Name, len(s.Categories))
	}
	totalWeight := 0.0
	for i, c := range s.Categories {
		if c.Name == "" {
			return fmt.Errorf("scenario %s: category %d unnamed", s.Name, i)
		}
		if c.Weight <= 0 {
			return fmt.Errorf("scenario %s: category %s non-positive weight %v", s.Name, c.Name, c.Weight)
		}
		totalWeight += c.Weight
		if c.ParkProb < 0 || c.ParkProb > 1 {
			return fmt.Errorf("scenario %s: category %s park probability %v outside [0,1]", s.Name, c.Name, c.ParkProb)
		}
		if c.ParkProb > 0 {
			if c.MeanDwell <= 0 {
				return fmt.Errorf("scenario %s: category %s parks but has non-positive dwell %v", s.Name, c.Name, c.MeanDwell)
			}
			if c.GammaAlpha <= 0 {
				return fmt.Errorf("scenario %s: category %s parks but has non-positive gamma alpha %v", s.Name, c.Name, c.GammaAlpha)
			}
		}
	}
	if totalWeight <= 0 {
		return fmt.Errorf("scenario %s: zero total category weight", s.Name)
	}
	if len(s.Gates) == 0 {
		return fmt.Errorf("scenario %s: no gates", s.Name)
	}
	seen := make(map[string]bool, len(s.Gates))
	for i, g := range s.Gates {
		if g.Reader == "" {
			return fmt.Errorf("scenario %s: gate %d has no reader name", s.Name, i)
		}
		if seen[g.Reader] {
			return fmt.Errorf("scenario %s: duplicate reader name %q", s.Name, g.Reader)
		}
		seen[g.Reader] = true
		if g.Antennas < 1 {
			return fmt.Errorf("scenario %s: gate %s needs at least one antenna", s.Name, g.Reader)
		}
	}
	if s.Population > 0 && len(s.Route) == 0 {
		return fmt.Errorf("scenario %s: flowing population needs a route", s.Name)
	}
	for _, gi := range s.Route {
		if gi < 0 || gi >= len(s.Gates) {
			return fmt.Errorf("scenario %s: route gate index %d out of range", s.Name, gi)
		}
	}
	if s.Residents > 0 && s.MoverFraction > 0 && len(s.Gates) < 2 {
		return fmt.Errorf("scenario %s: resident churn needs at least two gates to move between", s.Name)
	}
	if s.Arrival.BatchMean < 0 {
		return fmt.Errorf("scenario %s: negative batch mean %v", s.Name, s.Arrival.BatchMean)
	}
	if s.Arrival.RushAt < 0 || s.Arrival.RushAt > 1 || s.Arrival.RushWidth < 0 || s.Arrival.RushWidth > 1 {
		return fmt.Errorf("scenario %s: rush parameters outside [0,1]", s.Name)
	}
	return nil
}

// withDefaults fills the defaulted zero values; call after Validate.
func (s Spec) withDefaults() Spec {
	if s.Step <= 0 {
		s.Step = time.Second
	}
	if s.Cycle <= 0 {
		s.Cycle = 2 * time.Second
	}
	if s.Cycle < s.Step {
		s.Cycle = s.Step
	}
	if s.Cost == (aloha.CostModel{}) {
		s.Cost = aloha.PaperCostModel()
	}
	if s.Arrival.BatchMean < 1 {
		s.Arrival.BatchMean = 1
	}
	if s.Arrival.RushAt > 0 && s.Arrival.RushWidth == 0 {
		s.Arrival.RushWidth = 0.25
	}
	for i := range s.Gates {
		if s.Gates[i].Spacing <= 0 {
			s.Gates[i].Spacing = 0.5
		}
	}
	return s
}
