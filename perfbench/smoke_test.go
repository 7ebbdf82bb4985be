package main

import (
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload shrunk (small scenes, short
// dwells) but with enough cycles for its percentiles, traced so the
// planner replay, profile and spans run too. Run it under -race: the
// fleet-wire rig shares state between its consumer goroutine and the
// main one.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			opts := options{workload: w, seed: 3, seconds: 1, trace: true, small: true,
				spans: filepath.Join(t.TempDir(), "spans.json")}
			res, r, err := execute(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range r.failures {
				t.Error("failed:", f)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
				t.Errorf("result correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			for _, m := range endToEnd {
				if v, ok := r.e2e[m.name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v (reported %v), want > 0", m.name, v.Value, ok)
				}
			}
			for _, m := range timings {
				if v := res.Metrics[m.name]; v.Value <= 0 {
					t.Errorf("timing %s = %v, want > 0", m.name, v.Value)
				}
			}
			if len(r.spans.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}
