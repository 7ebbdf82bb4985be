package main

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: tagwatch/internal/llrp
cpu: whatever
BenchmarkROAccessReportEncode-8   	 1000000	      1234 ns/op	     512 B/op	      10 allocs/op
BenchmarkROAccessReportDecode-8   	  500000	      2468.5 ns/op
PASS
ok  	tagwatch/internal/llrp	2.345s
pkg: tagwatch/internal/fleet
BenchmarkRegistryObserve-8        	 2000000	       321 ns/op	      64 B/op	       2 allocs/op
PASS
`

func TestParse(t *testing.T) {
	out, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Goos != "linux" || out.Goarch != "amd64" {
		t.Fatalf("goos/goarch: %q/%q", out.Goos, out.Goarch)
	}
	if len(out.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(out.Benchmarks), out.Benchmarks)
	}
	// Sorted by (pkg, name): fleet first.
	first := out.Benchmarks[0]
	if first.Pkg != "tagwatch/internal/fleet" || first.Name != "RegistryObserve" {
		t.Fatalf("first = %+v", first)
	}
	if first.Runs != 2000000 || first.NsPerOp != 321 || first.BPerOp != 64 || first.AllocsPerOp != 2 {
		t.Fatalf("first values = %+v", first)
	}
	// The -8 GOMAXPROCS suffix is stripped; missing -benchmem fields are -1.
	dec := out.Benchmarks[1]
	if dec.Name != "ROAccessReportDecode" || dec.NsPerOp != 2468.5 || dec.BPerOp != -1 || dec.AllocsPerOp != -1 {
		t.Fatalf("decode = %+v", dec)
	}
}

func TestParseRejectsGarbageCounts(t *testing.T) {
	_, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkX-4 nope 12 ns/op\n")))
	if err == nil {
		t.Fatal("bad run count must error")
	}
}

func TestCompare(t *testing.T) {
	run := func(rs ...Result) Output { return Output{Benchmarks: rs} }
	b := func(name string, ns float64, allocs int64) Result {
		return Result{Pkg: "p", Name: name, NsPerOp: ns, BPerOp: 8 * allocs, AllocsPerOp: allocs}
	}
	cases := []struct {
		name     string
		old, cur Output
		fail     []string
	}{
		{"identical", run(b("A", 10, 5)), run(b("A", 10, 5)), nil},
		{"slower but allocates the same", run(b("A", 10, 5)), run(b("A", 500, 5)), nil},
		{"fewer allocs", run(b("A", 10, 5)), run(b("A", 10, 1)), nil},
		{"rise within 1%", run(b("A", 10, 1000)), run(b("A", 10, 1010)), nil},
		{"rise beyond 1%", run(b("A", 10, 1000)), run(b("A", 10, 1011)), []string{"p.A: allocs/op rose from 1000 to 1011"}},
		{"first alloc", run(b("A", 10, 0)), run(b("A", 10, 1)), []string{"p.A: allocs/op rose from 0 to 1"}},
		{"missing", run(b("A", 10, 1), b("B", 10, 1)), run(b("B", 10, 1)), []string{"p.A: missing from the new run"}},
		{"added is not judged", run(b("A", 10, 1)), run(b("A", 10, 1), b("C", 10, 99)), nil},
		{"no -benchmem in old", run(b("A", 10, -1)), run(b("A", 10, 7)), nil},
		{"no -benchmem in new", run(b("A", 10, 3)), run(b("A", 10, -1)), []string{"p.A: no allocs/op in the new run (run it with -benchmem)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := compare(io.Discard, tc.old, tc.cur)
			if strings.Join(got, "\n") != strings.Join(tc.fail, "\n") {
				t.Fatalf("failures = %q, want %q", got, tc.fail)
			}
		})
	}
}

func TestCompareReportsEveryBenchmark(t *testing.T) {
	var sb strings.Builder
	old := Output{Benchmarks: []Result{{Pkg: "p", Name: "Gone", NsPerOp: 1}, {Pkg: "p", Name: "Kept", NsPerOp: 2}}}
	cur := Output{Benchmarks: []Result{{Pkg: "p", Name: "Kept", NsPerOp: 3}, {Pkg: "p", Name: "Added", NsPerOp: 4}}}
	compare(&sb, old, cur)
	for _, want := range []string{"p.Gone", "missing", "p.Kept", "p.Added", "new"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, sb.String())
		}
	}
}
