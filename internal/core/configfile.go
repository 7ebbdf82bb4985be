package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"tagwatch/internal/epc"
)

// FileConfig is the on-disk configuration of the middleware — the paper's
// §5 "configuration file" in which operators pin tags of significant
// concern, plus the tunables upper applications are allowed to adjust.
// All fields are optional; absent fields keep the paper defaults.
type FileConfig struct {
	// PinnedEPCs are hex EPCs always scheduled in Phase II.
	PinnedEPCs []string `json:"pinned_epcs"`
	// PhaseIIDwellMS is the selective-reading dwell in milliseconds
	// (paper default: 5000).
	PhaseIIDwellMS int `json:"phase2_dwell_ms"`
	// MobileCutoff is the mover fraction above which cycles fall back to
	// read-all (paper default: 0.2).
	MobileCutoff float64 `json:"mobile_cutoff"`
	// StickyMS is the target hysteresis window in milliseconds.
	StickyMS int `json:"sticky_ms"`
	// DepartAfterMS forgets tags unseen for this long.
	DepartAfterMS int `json:"depart_after_ms"`
	// NaiveSchedule switches to the EPC-per-target baseline schedule.
	NaiveSchedule bool `json:"naive_schedule"`
}

// LoadConfigFile reads a FileConfig from a JSON file and layers it over
// the defaults.
func LoadConfigFile(path string) (Config, error) {
	cfg := DefaultConfig()
	raw, err := os.ReadFile(path)
	if err != nil {
		return cfg, fmt.Errorf("core: read config: %w", err)
	}
	return applyFileConfig(cfg, raw)
}

// ConfigFlags registers -config and -dwell on fs. The function it
// returns, called after fs.Parse, loads the -config file over the
// defaults and then applies -dwell only when it was given, so the flag's
// default never overrides a file's phase2_dwell_ms.
func ConfigFlags(fs *flag.FlagSet) func() (Config, error) {
	path := fs.String("config", "", "JSON configuration file (see core.FileConfig)")
	dwell := fs.Duration("dwell", DefaultConfig().PhaseIIDwell, "Phase II dwell per cycle; overrides the config file's phase2_dwell_ms")
	return func() (Config, error) {
		cfg := DefaultConfig()
		if *path != "" {
			var err error
			if cfg, err = LoadConfigFile(*path); err != nil {
				return cfg, err
			}
		}
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "dwell" {
				cfg.PhaseIIDwell = *dwell
			}
		})
		return cfg, nil
	}
}

// maxMS is the largest millisecond count a time.Duration holds.
const maxMS = math.MaxInt64 / int64(time.Millisecond)

// applyFileConfig parses raw JSON over base. A negative value, a
// millisecond count too large for a time.Duration, or data after the
// JSON object is an error, not a silent default.
func applyFileConfig(base Config, raw []byte) (Config, error) {
	var fc FileConfig
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fc); err != nil {
		return base, fmt.Errorf("core: parse config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return base, errors.New("core: parse config: data after the JSON object")
	}
	for _, s := range fc.PinnedEPCs {
		code, err := epc.Parse(s)
		if err != nil {
			return base, fmt.Errorf("core: pinned EPC %q: %w", s, err)
		}
		base.Pinned = append(base.Pinned, code)
	}
	for _, f := range []struct {
		name string
		ms   int
		dst  *time.Duration
	}{
		{"phase2_dwell_ms", fc.PhaseIIDwellMS, &base.PhaseIIDwell},
		{"sticky_ms", fc.StickyMS, &base.StickyFor},
		{"depart_after_ms", fc.DepartAfterMS, &base.DepartAfter},
	} {
		if f.ms < 0 {
			return base, fmt.Errorf("core: %s %d is negative", f.name, f.ms)
		}
		if int64(f.ms) > maxMS {
			return base, fmt.Errorf("core: %s %d overflows a duration (at most %d ms)", f.name, f.ms, maxMS)
		}
		if f.ms > 0 {
			*f.dst = time.Duration(f.ms) * time.Millisecond
		}
	}
	if fc.MobileCutoff < 0 || fc.MobileCutoff > 1 {
		return base, fmt.Errorf("core: mobile_cutoff %v out of (0, 1]", fc.MobileCutoff)
	}
	if fc.MobileCutoff > 0 {
		base.MobileCutoff = fc.MobileCutoff
	}
	if fc.NaiveSchedule {
		base.NaiveSchedule = true
	}
	return base, nil
}
