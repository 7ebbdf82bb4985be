// Command tracegen compiles a scenario pack and writes it as CSV: one row
// per tag with arrival, departure, and reading counts, or the per-minute
// timeline. By default it compiles the trackpoint pack, the paper's
// sorting facility (Figs. 3–4); -scenario swaps in any other built-in
// pack, so this tool, Fig. 3/4 and the replay daemon (cmd/replayd) share
// one workload factory.
//
// Usage:
//
//	tracegen -hours 4 -tags 527 -seed 1 > trace.csv
//	tracegen -timeline > timeline.csv
//	tracegen -scenario retail-rush > rush.csv
//	tracegen -scenario list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tagwatch/internal/scenario"
)

func main() {
	var (
		hours    = flag.Float64("hours", 0, "override trace duration in hours (0 keeps the scenario's)")
		tags     = flag.Int("tags", 0, "override the flowing population (0 keeps the scenario's)")
		seed     = flag.Int64("seed", 1, "generation seed")
		timeline = flag.Bool("timeline", false, "emit the per-minute timeline instead of per-tag rows")
		adaptive = flag.Bool("adaptive", false, "replay the facility under the rate-adaptive policy")
		scen     = flag.String("scenario", "trackpoint", "built-in scenario pack to generate from (\"list\" to enumerate)")
	)
	flag.Parse()

	if *scen == "list" {
		for _, p := range scenario.Packs() {
			fmt.Printf("%-22s %s\n", p.Name, p.Description)
		}
		return
	}
	spec, err := scenario.Lookup(*scen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	if *hours > 0 {
		spec.Duration = time.Duration(*hours * float64(time.Hour))
	}
	if *tags > 0 {
		spec.Population = *tags
	}
	spec.RateAdaptive = *adaptive
	tr, err := scenario.Compile(spec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *timeline {
		fmt.Fprintln(w, "minute,readings")
		for m, c := range tr.ReadingsPerMinute() {
			fmt.Fprintf(w, "%d,%d\n", m, c)
		}
	} else {
		fmt.Fprintln(w, "epc,arrive_s,depart_s,parked,crossing_reads,parked_reads")
		for _, t := range tr.Tags {
			fmt.Fprintf(w, "%s,%.0f,%.0f,%v,%d,%d\n",
				t.EPC, t.Arrive.Seconds(), t.Depart.Seconds(), t.Parked,
				t.CrossingReads, t.Reads-t.CrossingReads)
		}
	}
	hottest, peakMovers := 0, 0
	for _, t := range tr.Tags {
		hottest = max(hottest, t.Reads)
	}
	for _, ev := range tr.Events {
		peakMovers = max(peakMovers, len(ev.Mobile))
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d tags, %d readings over %v, peak %d movers read in one cycle, hottest tag %d reads\n",
		len(tr.Tags), tr.Stats.Readings, spec.Duration, peakMovers, hottest)
}
