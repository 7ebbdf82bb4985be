package chaos

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Errors ParseSpec wraps for values that parse as numbers but would make
// the injector misbehave.
var (
	// ErrBadProbability rejects a probability outside [0,1], NaN included:
	// a NaN never fires, so it would inject nothing while looking enabled.
	ErrBadProbability = errors.New("probability outside [0,1]")
	// ErrNegative rejects a negative duration or byte budget, which would
	// silently inject nothing.
	ErrNegative = errors.New("negative duration or byte count")
	// ErrSkewTooLarge rejects a skew beyond maxSkew, the largest magnitude
	// Injector.Skew can draw an offset for.
	ErrSkewTooLarge = errors.New("skew too large")
)

// maxSkew is the largest SkewMax whose offset range [-SkewMax, +SkewMax]
// Injector.Skew can draw from without overflowing int64.
const maxSkew = time.Duration(math.MaxInt64 / 2)

// ParseSpec parses the compact key=value fault spec used by the -chaos
// command-line flags, e.g.
//
//	seed=42,latency=5ms,jitter=2ms,corrupt=0.01,reset=0.02,blackhole-after=65536,refuse=0.2
//
// Keys: seed, latency, jitter, stall, truncate, corrupt, reset,
// blackhole-after (bytes), refuse, partition (rx|tx|both),
// partition-after (bytes), flap (bytes), skew (duration). Unknown keys
// and values that would silently inject nothing (a NaN probability, a
// negative duration or byte count) error instead. An empty spec returns
// the zero Config. Spec is the inverse: ParseSpec(cfg.Spec()) == cfg.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: %q is not key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "latency":
			cfg.Latency, err = parseDuration(val)
		case "jitter":
			cfg.Jitter, err = parseDuration(val)
		case "stall":
			cfg.StallProb, err = parseProb(val)
		case "truncate":
			cfg.TruncateProb, err = parseProb(val)
		case "corrupt":
			cfg.CorruptProb, err = parseProb(val)
		case "reset":
			cfg.ResetProb, err = parseProb(val)
		case "blackhole-after":
			cfg.BlackholeAfter, err = parseBytes(val)
		case "refuse":
			cfg.RefuseProb, err = parseProb(val)
		case "partition":
			switch val {
			case "rx", "tx", "both":
				cfg.PartitionDir = val
			default:
				err = fmt.Errorf("direction %q not rx, tx, or both", val)
			}
		case "partition-after":
			cfg.PartitionAfter, err = parseBytes(val)
		case "flap":
			cfg.FlapBytes, err = parseBytes(val)
		case "skew":
			cfg.SkewMax, err = parseDuration(val)
			if err == nil && cfg.SkewMax > maxSkew {
				err = fmt.Errorf("%w (max %v)", ErrSkewTooLarge, maxSkew)
			}
		default:
			return Config{}, fmt.Errorf("chaos: unknown fault %q", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("chaos: %s=%s: %w", key, val, err)
		}
	}
	return cfg, nil
}

// Spec renders the config back into the canonical flag syntax: fixed
// key order, zero-valued fields omitted, so ParseSpec(cfg.Spec()) == cfg
// and equal configs render identical strings. The empty string is the
// zero Config — the gauntlet report embeds these strings, so this
// canonical form is part of what the verdict fingerprint covers.
func (c Config) Spec() string {
	var parts []string
	add := func(key, val string) { parts = append(parts, key+"="+val) }
	prob := func(key string, p float64) {
		if p != 0 {
			add(key, strconv.FormatFloat(p, 'g', -1, 64))
		}
	}
	if c.Seed != 0 {
		add("seed", strconv.FormatInt(c.Seed, 10))
	}
	if c.Latency != 0 {
		add("latency", c.Latency.String())
	}
	if c.Jitter != 0 {
		add("jitter", c.Jitter.String())
	}
	prob("stall", c.StallProb)
	prob("truncate", c.TruncateProb)
	prob("corrupt", c.CorruptProb)
	prob("reset", c.ResetProb)
	if c.BlackholeAfter != 0 {
		add("blackhole-after", strconv.FormatInt(c.BlackholeAfter, 10))
	}
	prob("refuse", c.RefuseProb)
	if c.PartitionDir != "" {
		add("partition", c.PartitionDir)
	}
	if c.PartitionAfter != 0 {
		add("partition-after", strconv.FormatInt(c.PartitionAfter, 10))
	}
	if c.FlapBytes != 0 {
		add("flap", strconv.FormatInt(c.FlapBytes, 10))
	}
	if c.SkewMax != 0 {
		add("skew", c.SkewMax.String())
	}
	return strings.Join(parts, ",")
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("%w: %v", ErrBadProbability, p)
	}
	return p, nil
}

// parseDuration parses a non-negative duration.
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = ErrNegative
	}
	return d, err
}

// parseBytes parses a non-negative byte count.
func parseBytes(s string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err == nil && n < 0 {
		err = ErrNegative
	}
	return n, err
}
