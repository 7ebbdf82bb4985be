// Command perfbench is tagwatch's benchmark. Each run drives one
// workload for a fixed number of closed-loop cycles, checks the
// program's outputs, and prints one JSON result as its last line:
// end-to-end metrics when untraced, per-layer metrics when traced.
//
//	perfbench --workload turntable-400 --seed 1 --seconds 30 --trace 0
//	perfbench --steady 10   # each workload 10 times in fresh processes
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads lists the benchmark's workloads in their default order.
var workloads = []string{"turntable-400", "conveyor-churn", "fleet-wire"}

// runLimit bounds one run's wall time.
const runLimit = 170 * time.Second

func main() {
	var (
		opts   options
		trace  int
		steady int
	)
	flag.StringVar(&opts.workload, "workload", "", "workload to run: turntable-400, conveyor-churn or fleet-wire")
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed: the same seed builds the same scene")
	flag.IntVar(&opts.seconds, "seconds", 30, "the run length the fixed cycle counts are sized for (1-60); the run is not paced by it")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: spans, CPU profile by layer, per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "run every workload this many times in fresh processes and report each metric's spread")
	flag.Parse()
	opts.trace = trace == 1

	if steady > 0 {
		if err := runSteady(steady, opts); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if opts.seconds < 1 || opts.seconds > 60 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be 1-60 and --trace 0 or 1")
		os.Exit(2)
	}
	// A run has 180 s to finish; one that wedges says so and exits
	// instead of hanging its caller.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d exceeded %v\n", opts.workload, opts.seed, runLimit)
		os.Exit(3)
	})
	if opts.trace {
		opts.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", opts.workload, opts.seed))
	}
	res, r, err := execute(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	if err := report(os.Stdout, r, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs one workload and assembles its result.
func execute(opts options) (result, *run, error) {
	r := newRun(opts)
	var err error
	switch opts.workload {
	case "turntable-400":
		err = runInproc(r, turntable400(opts.small))
	case "conveyor-churn":
		err = runInproc(r, conveyorChurn(opts.small))
	case "fleet-wire":
		err = runWire(r, fleetWireScale(opts.small))
	default:
		err = fmt.Errorf("unknown workload %q", opts.workload)
	}
	if err != nil {
		return result{}, nil, err
	}
	if opts.trace {
		if err := os.MkdirAll(filepath.Dir(opts.spans), 0o755); err != nil {
			return result{}, nil, err
		}
		if err := r.spans.write(opts.spans); err != nil {
			return result{}, nil, err
		}
	}
	return r.finish(), r, nil
}

// report prints the run's determinism digest; then, for an untraced
// run, its timings (per-layer metrics otherwise printed only by the
// traced run) or, for a traced run, its end-to-end numbers (for the
// tracing overhead); then the result line.
func report(out *os.File, r *run, res result) error {
	fmt.Fprintf(out, "digest %s %016x\n", r.opts.workload, r.digest.Sum64())
	label, extra := "timings", map[string]metric{}
	for _, m := range timings {
		if v, ok := r.layer[m.name]; ok {
			extra[m.name] = v
		}
	}
	if r.opts.trace {
		label, extra = "traced-e2e", r.e2e
	}
	b, err := json.Marshal(extra)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s %s\n", label, b)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %v\n", r.opts.workload, r.opts.seed, time.Since(r.start).Round(time.Millisecond))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
