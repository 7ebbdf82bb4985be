package scenario

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"tagwatch/internal/rf"
)

func validSpec() Spec {
	return Spec{
		Name:       "test",
		Duration:   2 * time.Minute,
		Population: 40,
		CrossTime:  2 * time.Second,
		Categories: []Category{{Name: "box", Weight: 1, ParkProb: 0.5, MeanDwell: 30 * time.Second, GammaAlpha: 5}},
		Gates: []Gate{
			{Reader: "in", Antennas: 2, Center: rf.Pt(0, 0, 2)},
			{Reader: "out", Antennas: 2, Center: rf.Pt(10, 0, 2)},
		},
		Route: []int{0, 1},
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "needs a name"},
		{"zero duration", func(s *Spec) { s.Duration = 0 }, "non-positive duration"},
		{"negative duration", func(s *Spec) { s.Duration = -time.Second }, "non-positive duration"},
		{"empty population", func(s *Spec) { s.Population = 0 }, "empty population"},
		{"negative population", func(s *Spec) { s.Population = -1 }, "negative population"},
		{"mover fraction", func(s *Spec) { s.MoverFraction = 1.5 }, "mover fraction"},
		{"zero cross", func(s *Spec) { s.CrossTime = 0 }, "non-positive cross time"},
		{"no categories", func(s *Spec) { s.Categories = nil }, "no categories"},
		{"zero weight", func(s *Spec) { s.Categories[0].Weight = 0 }, "non-positive weight"},
		{"park prob", func(s *Spec) { s.Categories[0].ParkProb = 2 }, "park probability"},
		{"park without dwell", func(s *Spec) { s.Categories[0].MeanDwell = 0 }, "non-positive dwell"},
		{"park without gamma", func(s *Spec) { s.Categories[0].GammaAlpha = 0 }, "non-positive gamma alpha"},
		{"no gates", func(s *Spec) { s.Gates = nil }, "no gates"},
		{"unnamed gate", func(s *Spec) { s.Gates[0].Reader = "" }, "no reader name"},
		{"duplicate gate", func(s *Spec) { s.Gates[1].Reader = "in" }, "duplicate reader"},
		{"no antennas", func(s *Spec) { s.Gates[0].Antennas = 0 }, "at least one antenna"},
		{"no route", func(s *Spec) { s.Route = nil }, "needs a route"},
		{"route range", func(s *Spec) { s.Route = []int{7} }, "out of range"},
		{"churn one gate", func(s *Spec) {
			s.Gates = s.Gates[:1]
			s.Route = []int{0}
			s.Residents, s.MoverFraction = 10, 0.1
		}, "at least two gates"},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mut(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestPacksValidateAndCompile(t *testing.T) {
	packs := Packs()
	if len(packs) < 5 {
		t.Fatalf("want at least 5 built-in packs, have %d", len(packs))
	}
	for _, p := range packs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := p.Validate(); err != nil {
				t.Fatalf("pack invalid: %v", err)
			}
			c, err := Compile(p, 7)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if c.Stats.Tags == 0 || c.Stats.Readings == 0 || c.Stats.Events == 0 {
				t.Fatalf("degenerate timeline: %+v", c.Stats)
			}
			if len(p.Gates) > 1 && c.Stats.GateChanges == 0 {
				t.Errorf("multi-gate pack produced no gate changes (no handoffs on replay)")
			}
			for i, tag := range c.Tags {
				if tag.Depart < tag.Arrive || tag.Depart > p.Duration {
					t.Fatalf("tag %d departs at %v, outside [%v, %v]", i, tag.Depart, tag.Arrive, p.Duration)
				}
				if tag.CrossingReads > tag.Reads {
					t.Fatalf("tag %d: %d crossing reads of %d", i, tag.CrossingReads, tag.Reads)
				}
			}
			// Events ordered by (At, Gate); readings within an event precede
			// its timestamp and are ordered.
			for i, ev := range c.Events {
				if i > 0 {
					prev := c.Events[i-1]
					if ev.At < prev.At || (ev.At == prev.At && ev.Gate <= prev.Gate) {
						t.Fatalf("event %d out of order: %v/%d after %v/%d", i, ev.At, ev.Gate, prev.At, prev.Gate)
					}
				}
				for j, r := range ev.Readings {
					if r.At > ev.At {
						t.Fatalf("event %d reading %d at %v after window end %v", i, j, r.At, ev.At)
					}
					if j > 0 && r.At < ev.Readings[j-1].At {
						t.Fatalf("event %d readings unsorted", i)
					}
					if int(r.Tag) >= len(c.Tags) {
						t.Fatalf("event %d reading %d tag index %d out of range", i, j, r.Tag)
					}
					if r.Antenna < 1 || int(r.Antenna) > p.Gates[ev.Gate].Antennas {
						t.Fatalf("event %d reading %d antenna %d outside gate ports", i, j, r.Antenna)
					}
				}
			}
			// Category structure is recoverable from the EPC prefix: byte 2
			// carries 0xA0 | category.
			for i, tag := range c.Tags {
				b := tag.EPC.Bytes()
				if len(b) < 3 || int(b[2]&0x0F) != tag.Category {
					t.Fatalf("tag %d EPC %s does not encode category %d", i, tag.EPC, tag.Category)
				}
			}
			for _, cs := range c.Stats.PerCategory {
				if cs.Tags == 0 {
					t.Errorf("category %s got no tags", cs.Name)
				}
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("retail-rush"); err != nil {
		t.Fatalf("lookup retail-rush: %v", err)
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "unknown pack") {
		t.Fatalf("lookup nope: %v", err)
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names unsorted: %v", names)
		}
	}
}

func TestBuildScene(t *testing.T) {
	for _, p := range Packs() {
		sc, err := p.BuildScene(rand.New(rand.NewSource(3)), 50)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		wantAnts := 0
		for _, g := range p.Gates {
			wantAnts += g.Antennas
		}
		if len(sc.Antennas) != wantAnts {
			t.Errorf("%s: %d antennas, want %d", p.Name, len(sc.Antennas), wantAnts)
		}
		if len(sc.Tags) == 0 || len(sc.Tags) > 50 {
			t.Errorf("%s: %d tags outside (0,50]", p.Name, len(sc.Tags))
		}
		// A flowing pack must put at least one tag in motion somewhere;
		// scan at half the crossing time so even second-long transits at
		// hour scale are caught.
		if p.Population > 0 {
			moving := false
			for _, tag := range sc.Tags {
				for ti := time.Duration(0); ti < p.Duration && !moving; ti += p.CrossTime / 2 {
					moving = tag.Traj.Moving(ti)
				}
				if moving {
					break
				}
			}
			if !moving {
				t.Errorf("%s: no tag ever moves in the built scene", p.Name)
			}
		}
	}
}
