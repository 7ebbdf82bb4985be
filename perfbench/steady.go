package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// sample is what one child run reported.
type sample struct {
	res     result
	digest  string
	timings map[string]metric // untraced runs: their timings
	traced  map[string]metric // traced runs: their end-to-end numbers
}

// runSteady runs every workload (or only opts.workload) n times, each
// in a fresh process with seed opts.seed+i, alternating the workload
// order between rounds. With opts.trace it then makes two traced runs
// per workload on the first two seeds. It prints, per end-to-end metric
// and timing, the median, quartiles, spread (quartile distance ÷ median,
// as the bounds in BENCHMARK.json are judged) and worst deviation, plus
// the tracing overhead.
func runSteady(n int, opts options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloads
	if opts.workload != "" {
		names = []string{opts.workload}
	}
	untraced := map[string][]sample{}
	traced := map[string][]sample{}
	child := func(w string, seed int64, trace bool) (sample, error) {
		args := []string{"--workload", w, "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(opts.seconds), "--trace", "0"}
		if trace {
			args[len(args)-1] = "1"
		}
		var out, errOut bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			return sample{}, fmt.Errorf("%s seed %d: %v\n%s", w, seed, err, errOut.String())
		}
		s, err := parseChild(out.Bytes())
		if err != nil {
			return sample{}, fmt.Errorf("%s seed %d: %v", w, seed, err)
		}
		if !s.res.Correct || s.res.Failed > 0 {
			fmt.Fprintf(os.Stderr, "%s seed %d: incorrect (%d of %d failed)\n%s", w, seed, s.res.Failed, s.res.Attempted, errOut.String())
		}
		return s, nil
	}
	for i := 0; i < n; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			s, err := child(w, opts.seed+int64(i), false)
			if err != nil {
				return err
			}
			untraced[w] = append(untraced[w], s)
			fmt.Fprintf(os.Stderr, "steady: %s seed %d done\n", w, opts.seed+int64(i))
		}
	}
	if opts.trace {
		for i := 0; i < 2 && i < n; i++ {
			for _, w := range names {
				s, err := child(w, opts.seed+int64(i), true)
				if err != nil {
					return err
				}
				traced[w] = append(traced[w], s)
			}
		}
	}
	for _, w := range names {
		printSteady(w, untraced[w], traced[w])
	}
	return nil
}

// parseChild reads a run's digest, traced end-to-end line and result.
func parseChild(out []byte) (sample, error) {
	var s sample
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "digest "):
			s.digest = line[strings.LastIndexByte(line, ' ')+1:]
		case strings.HasPrefix(line, "timings "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "timings ")), &s.timings); err != nil {
				return s, err
			}
		case strings.HasPrefix(line, "traced-e2e "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "traced-e2e ")), &s.traced); err != nil {
				return s, err
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &s.res); err != nil {
		return s, fmt.Errorf("last line is not a result: %v", err)
	}
	return s, nil
}

// valueOf finds a metric in whichever of a run's outputs carries it.
func valueOf(s sample, name string) (float64, bool) {
	for _, m := range []map[string]metric{s.res.Metrics, s.timings, s.traced} {
		if v, ok := m[name]; ok {
			return v.Value, true
		}
	}
	return 0, false
}

func printSteady(w string, runs, traced []sample) {
	correct, failed, attempted := 0, 0, 0
	digests := map[string]bool{}
	for _, s := range runs {
		if s.res.Correct {
			correct++
		}
		failed += s.res.Failed
		attempted += s.res.Attempted
		digests[s.digest] = true
	}
	fmt.Printf("\n%s: %d runs, %d correct, %d of %d operations failed, %d distinct digests\n",
		w, len(runs), correct, failed, attempted, len(digests))
	// Each traced run repeats an untraced run's seed: a workload whose
	// virtual-time outputs are deterministic repeats its digest.
	for i, s := range traced {
		fmt.Printf("seed repeat %d: digest %s vs %s, attempted %d vs %d, same=%v\n",
			i, s.digest, runs[i].digest, s.res.Attempted, runs[i].res.Attempted, s.digest == runs[i].digest)
	}
	fmt.Printf("%-22s %12s %12s %12s %8s %8s %12s\n", "metric", "median", "q1", "q3", "spread", "worst", "trace-ovh")
	for _, m := range append(endToEnd, timings...) {
		var vals []float64
		for _, s := range runs {
			if v, ok := valueOf(s, m.name); ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		q1, med, q3 := quartiles(vals)
		worst := 0.0
		for _, v := range vals {
			worst = math.Max(worst, math.Abs(v-med))
		}
		ovh := "-"
		if len(traced) > 0 {
			// Compare like with like: the untraced runs of the traced seeds.
			var tv, uv []float64
			for i, s := range traced {
				t, okT := valueOf(s, m.name)
				u, okU := valueOf(runs[i], m.name)
				if okT && okU {
					tv = append(tv, t)
					uv = append(uv, u)
				}
			}
			if len(tv) > 0 {
				d := median(tv) - median(uv)
				ovh = fmt.Sprintf("%+.3g (%+.1f%%)", d, 100*ratio(d, median(uv)))
			}
		}
		fmt.Printf("%-22s %12.5g %12.5g %12.5g %7.1f%% %7.1f%% %12s %s\n",
			m.name, med, q1, q3, 100*ratio(q3-q1, med), 100*ratio(worst, med), ovh, m.unit)
		fmt.Printf("%-22s %.5g\n", "", vals)
	}
	if len(traced) > 0 {
		layers := map[string][]float64{}
		for _, s := range traced {
			for k, v := range s.res.Metrics {
				layers[k] = append(layers[k], v.Value)
			}
		}
		keys := make([]string, 0, len(layers))
		for k := range layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("per-layer (median of %d traced runs):\n", len(traced))
		for _, k := range keys {
			fmt.Printf("  %-34s %12.5g\n", k, median(layers[k]))
		}
	}
}
