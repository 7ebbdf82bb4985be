// Command benchjson converts `go test -bench -benchmem` output on stdin
// into the checked-in perf-trajectory file BENCH_core.json: one record
// per benchmark with ns/op, B/op, and allocs/op, sorted by (package,
// name) so diffs against the previous trajectory point are stable.
//
// With -compare it instead checks the run on stdin against an earlier
// BENCH_core.json and exits 1 when a benchmark of the old file is
// missing from the run or reports no allocs/op, or when its allocs/op
// rose by more than 1 %. It prints old and new ns/op without judging
// them: times depend on the machine, allocation counts do not.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH_core.json
//	go test -run '^$' -bench . -benchmem ./... > new.txt
//	benchjson -compare BENCH_core.json < new.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Pkg  string `json:"pkg"`
	Name string `json:"name"`
	Runs int64  `json:"runs"`
	// NsPerOp is wall time per operation; BPerOp/AllocsPerOp are -1 when
	// the run did not report memory stats.
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Output is the BENCH_core.json document.
type Output struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	against := flag.String("compare", "", "check the run on stdin against this earlier BENCH_core.json instead of printing it")
	flag.Parse()
	out, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *against != "" {
		raw, err := os.ReadFile(*against)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var old Output
		if err := json.Unmarshal(raw, &old); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *against, err)
			os.Exit(1)
		}
		if failures := compare(os.Stdout, old, out); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "benchjson: FAIL", f)
			}
			os.Exit(1)
		}
		return
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if _, err := os.Stdout.Write(b); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// allocSlack is the rise in allocs/op that compare forgives: set-up
// allocations amortised over a different b.N move the truncated count.
const allocSlack = 0.01

// compare writes a table of old against cur to w and returns one line
// per failure: a benchmark of old missing from cur, or its allocs/op
// unreported or risen by more than allocSlack. Benchmarks only in cur are
// listed, not judged.
func compare(w io.Writer, old, cur Output) []string {
	key := func(r Result) string { return r.Pkg + "." + r.Name }
	byKey := make(map[string]Result, len(cur.Benchmarks))
	for _, r := range cur.Benchmarks {
		byKey[key(r)] = r
	}
	var failures []string
	fmt.Fprintf(w, "%-60s %14s %14s %10s %10s\n", "benchmark", "old ns/op", "new ns/op", "old allocs", "new allocs")
	for _, o := range old.Benchmarks {
		k := key(o)
		n, ok := byKey[k]
		if !ok {
			fmt.Fprintf(w, "%-60s %14.1f %14s %10d %10s\n", k, o.NsPerOp, "missing", o.AllocsPerOp, "-")
			failures = append(failures, k+": missing from the new run")
			continue
		}
		delete(byKey, k)
		fmt.Fprintf(w, "%-60s %14.1f %14.1f %10d %10d\n", k, o.NsPerOp, n.NsPerOp, o.AllocsPerOp, n.AllocsPerOp)
		switch {
		case o.AllocsPerOp < 0:
			// The old file has no count to hold the run to.
		case n.AllocsPerOp < 0:
			failures = append(failures, k+": no allocs/op in the new run (run it with -benchmem)")
		case float64(n.AllocsPerOp) > float64(o.AllocsPerOp)*(1+allocSlack):
			failures = append(failures, fmt.Sprintf("%s: allocs/op rose from %d to %d", k, o.AllocsPerOp, n.AllocsPerOp))
		}
	}
	for _, n := range cur.Benchmarks {
		if _, added := byKey[key(n)]; added {
			fmt.Fprintf(w, "%-60s %14s %14.1f %10s %10d\n", key(n), "new", n.NsPerOp, "-", n.AllocsPerOp)
		}
	}
	return failures
}

func parse(sc *bufio.Scanner) (Output, error) {
	var out Output
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "goos: "):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
		case strings.HasPrefix(line, "goarch: "):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok, err := parseBench(line, pkg)
			if err != nil {
				return Output{}, err
			}
			if ok {
				out.Benchmarks = append(out.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Output{}, err
	}
	sort.Slice(out.Benchmarks, func(i, j int) bool {
		a, b := out.Benchmarks[i], out.Benchmarks[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		return a.Name < b.Name
	})
	return out, nil
}

// parseBench decodes one result line:
//
//	BenchmarkName-8   1000   1234 ns/op   512 B/op   10 allocs/op
//
// returning ok=false for benchmark lines with no measurements (e.g. a
// bare name echoed under -v).
func parseBench(line, pkg string) (Result, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Result{}, false, nil
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix so the name is stable across machines.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false, fmt.Errorf("bad run count in %q: %w", line, err)
	}
	ns, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return Result{}, false, fmt.Errorf("bad ns/op in %q: %w", line, err)
	}
	r := Result{Pkg: pkg, Name: name, Runs: runs, NsPerOp: ns, BPerOp: -1, AllocsPerOp: -1}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			r.BPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, true, nil
}
