// Command experiments regenerates the paper's evaluation figures against
// the simulated substrate.
//
// Usage:
//
//	experiments -all            # every figure, quick settings
//	experiments -fig 18 -full   # one figure at the paper's full scale
//	experiments -fig 15 -seed 7
//
// Figure numbers follow the paper: 1 (tracking), 2 (IRR model), 3 (trace,
// includes Fig 4), 8 (GMM modes), 12 (ROC), 13 (sensitivity), 14 (learning
// curve), 15/16 (schedule feasibility), 17 (schedule cost), 18 (IRR gain).
package main

import (
	"flag"
	"fmt"
	"os"

	"tagwatch/internal/experiments"
)

// both prints two results, one after the other.
type both [2]fmt.Stringer

func (b both) String() string { return b[0].String() + "\n" + b[1].String() }

func main() {
	var (
		fig  = flag.Int("fig", 0, "figure number to run (0 with -all runs everything)")
		all  = flag.Bool("all", false, "run every figure")
		full = flag.Bool("full", false, "paper-scale settings (slower)")
		seed = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	opt := experiments.Options{Seed: *seed, Quick: !*full}
	run := func(n int) (fmt.Stringer, error) {
		switch n {
		case 1:
			return experiments.Fig01(opt)
		case 2:
			return experiments.Fig02(opt)
		case 3, 4:
			return experiments.Fig03(opt)
		case 8:
			return experiments.Fig08(opt)
		case 12:
			return experiments.Fig12(opt)
		case 13:
			return experiments.Fig13(opt)
		case 14:
			return experiments.Fig14(opt)
		case 15:
			return experiments.Fig15(opt, 2)
		case 16:
			return experiments.Fig15(opt, 5)
		case 17:
			return experiments.Fig17(opt)
		case 18:
			paper, err := experiments.Fig18(opt)
			if err != nil {
				return nil, err
			}
			fused, err := experiments.Fig18Fused(opt)
			return both{paper, fused}, err
		default:
			return nil, fmt.Errorf("unknown figure %d", n)
		}
	}

	figs := []int{2, 3, 8, 12, 13, 14, 15, 16, 17, 18, 1}
	if !*all {
		if *fig == 0 {
			flag.Usage()
			os.Exit(2)
		}
		figs = []int{*fig}
	}
	for _, n := range figs {
		r, err := run(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig %d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println(r)
	}
}
