package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tagwatch/internal/epc"
)

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tagwatch.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigFileFull(t *testing.T) {
	path := writeConfig(t, `{
		"pinned_epcs": ["30f4ab12cd0045e100000001", "30F4AB12CD0045E100000002"],
		"phase2_dwell_ms": 2000,
		"mobile_cutoff": 0.3,
		"sticky_ms": 7000,
		"depart_after_ms": 60000,
		"naive_schedule": true
	}`)
	cfg, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Pinned) != 2 {
		t.Fatalf("pinned = %d", len(cfg.Pinned))
	}
	if cfg.Pinned[1] != epc.MustParse("30f4ab12cd0045e100000002") {
		t.Fatalf("pinned[1] = %s", cfg.Pinned[1])
	}
	if cfg.PhaseIIDwell != 2*time.Second {
		t.Fatalf("dwell = %v", cfg.PhaseIIDwell)
	}
	if cfg.MobileCutoff != 0.3 {
		t.Fatalf("cutoff = %v", cfg.MobileCutoff)
	}
	if cfg.StickyFor != 7*time.Second {
		t.Fatalf("sticky = %v", cfg.StickyFor)
	}
	if cfg.DepartAfter != time.Minute {
		t.Fatalf("depart = %v", cfg.DepartAfter)
	}
	if !cfg.NaiveSchedule {
		t.Fatal("naive flag lost")
	}
}

func TestLoadConfigFilePartialKeepsDefaults(t *testing.T) {
	path := writeConfig(t, `{"pinned_epcs": ["01ff"]}`)
	cfg, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if cfg.PhaseIIDwell != def.PhaseIIDwell || cfg.MobileCutoff != def.MobileCutoff {
		t.Fatalf("defaults lost: %+v", cfg)
	}
	if len(cfg.Pinned) != 1 {
		t.Fatal("pin lost")
	}
}

func TestLoadConfigFileErrors(t *testing.T) {
	if _, err := LoadConfigFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
	cases := map[string]string{
		"bad json":           `{not json`,
		"bad epc":            `{"pinned_epcs": ["zz"]}`,
		"bad cutoff":         `{"mobile_cutoff": 1.5}`,
		"unknown field":      `{"phase_two_dwell": 5}`,
		"negative dwell":     `{"phase2_dwell_ms": -5, "sticky_ms": 7000}`,
		"negative sticky":    `{"sticky_ms": -1}`,
		"negative depart":    `{"depart_after_ms": -60000}`,
		"negative cutoff":    `{"mobile_cutoff": -0.1}`,
		"overflowing dwell":  `{"phase2_dwell_ms": 9300000000000}`,
		"overflowing sticky": `{"sticky_ms": 18446744073709}`,
		"overflowing depart": `{"depart_after_ms": 9223372036854775807}`,
		"trailing garbage":   `{"phase2_dwell_ms": 2000} garbage`,
		"second object":      `{"phase2_dwell_ms": 2000} {}`,
		"stray brace":        `{"phase2_dwell_ms": 2000}}`,
	}
	for name, content := range cases {
		path := writeConfig(t, content)
		if _, err := LoadConfigFile(path); err == nil {
			t.Errorf("%s must error", name)
		}
	}
}

// TestConfigFlagsDwell: a config file's phase2_dwell_ms holds unless
// -dwell is given on the command line, and -dwell leaves the file's other
// values alone.
func TestConfigFlagsDwell(t *testing.T) {
	path := writeConfig(t, `{"phase2_dwell_ms": 2000, "sticky_ms": 7000}`)
	def := DefaultConfig()
	cases := []struct {
		args          []string
		dwell, sticky time.Duration
	}{
		{[]string{"-config", path}, 2 * time.Second, 7 * time.Second},
		{[]string{"-config", path, "-dwell", "700ms"}, 700 * time.Millisecond, 7 * time.Second},
		{[]string{"-dwell", "5s", "-config", path}, 5 * time.Second, 7 * time.Second},
		{[]string{"-dwell", "700ms"}, 700 * time.Millisecond, def.StickyFor},
		{nil, def.PhaseIIDwell, def.StickyFor},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("tagwatchd", flag.ContinueOnError)
		load := ConfigFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		cfg, err := load()
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if cfg.PhaseIIDwell != tc.dwell || cfg.StickyFor != tc.sticky {
			t.Errorf("%q: dwell %v sticky %v, want %v and %v", tc.args, cfg.PhaseIIDwell, cfg.StickyFor, tc.dwell, tc.sticky)
		}
	}
	fs := flag.NewFlagSet("tagwatchd", flag.ContinueOnError)
	load := ConfigFlags(fs)
	if err := fs.Parse([]string{"-config", writeConfig(t, `{"phase2_dwell_ms": -5}`), "-dwell", "1s"}); err != nil {
		t.Fatal(err)
	}
	if _, err := load(); err == nil {
		t.Fatal("a bad config file must fail the load even with -dwell given")
	}
}

func TestConfigFileDrivesPinning(t *testing.T) {
	// End to end: a config file pins a stationary tag, and the cycle
	// schedules it.
	tw, _, _, static := paperRig(t, 30, 20, 1, 0)
	path := writeConfig(t, `{"pinned_epcs": ["`+static[3].String()+`"], "phase2_dwell_ms": 2000, "sticky_ms": 5000}`)
	cfg, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the middleware with the loaded config over the same device.
	tw2 := New(cfg, tw.dev)
	var rep CycleReport
	for i := 0; i < 5; i++ {
		rep = tw2.RunCycle()
	}
	if rep.FellBack {
		t.Skip("fallback cycle")
	}
	if !inSet(rep.Targets, static[3]) {
		t.Fatalf("file-pinned tag missing from targets")
	}
}
