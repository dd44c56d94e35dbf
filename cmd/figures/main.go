// Command figures regenerates every figure of the paper's evaluation (§V)
// as text tables, CSV, or ASCII plots.
//
// Usage:
//
//	figures [-fig 4|5|6|7|extra|all] [-format table|csv|plot] [-trials N] [-seed S]
//
// Figs. 4–7 replay each random graph's reveal order through the §IV online
// mechanisms (core.SimulateCover) and set them against the offline optimum.
// internal/experiment's TestLiveEquivalence runs the same sweeps through a
// real track.Tracker and requires identical numbers. The extra figure adds
// ablations and an end-to-end throughput sweep (readfrac × do/batch) on the
// loadgen engine.
//
// Examples:
//
//	figures -fig 6                 # offline vs online, density sweep
//	figures -fig all -format csv   # every figure, CSV to stdout
//	figures -fig extra -trials 3   # ablations + throughput sweep, quick
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mixedclock/internal/experiment"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "which figure: 4, 5, 6, 7, extra, or all")
		format = flag.String("format", "table", "output format: table, csv, or plot")
		trials = flag.Int("trials", 10, "random graphs averaged per point")
		seed   = flag.Int64("seed", 2019, "base RNG seed")
	)
	flag.Parse()

	if err := run(os.Stdout, *fig, *format, *trials, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, fig, format string, trials int, seed int64) error {
	opt := experiment.Options{Trials: trials, Seed: seed}
	emitted := false
	want := func(name string) bool { return fig == "all" || fig == name }

	if want("4") {
		uni, non, err := experiment.Fig4(opt)
		if err != nil {
			return err
		}
		if err := emit(w, format, uni, non); err != nil {
			return err
		}
		emitted = true
	}
	if want("5") {
		uni, non, err := experiment.Fig5(opt)
		if err != nil {
			return err
		}
		if err := emit(w, format, uni, non); err != nil {
			return err
		}
		emitted = true
	}
	if want("6") {
		r, err := experiment.Fig6(opt)
		if err != nil {
			return err
		}
		if err := emit(w, format, r); err != nil {
			return err
		}
		emitted = true
	}
	if want("7") {
		r, err := experiment.Fig7(opt)
		if err != nil {
			return err
		}
		if err := emit(w, format, r); err != nil {
			return err
		}
		emitted = true
	}
	if want("extra") {
		if err := runExtra(w, format, trials, seed); err != nil {
			return err
		}
		emitted = true
	}
	if !emitted {
		return fmt.Errorf("unknown figure %q (want 4, 5, 6, 7, extra, or all)", fig)
	}
	return nil
}

func runExtra(w io.Writer, format string, trials int, seed int64) error {
	wl, names, err := experiment.WorkloadClockSizes(30, 30, 600, trials, seed)
	if err != nil {
		return err
	}
	if err := emit(w, format, wl); err != nil {
		return err
	}
	fmt.Fprint(w, "workload key:")
	for i, n := range names {
		fmt.Fprintf(w, " %d=%s", i, n)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)

	rs, err := experiment.RevealOrderSensitivity(50, nil, 20, seed)
	if err != nil {
		return err
	}
	if err := emit(w, format, rs); err != nil {
		return err
	}

	hy, err := experiment.HybridThresholdSweep(50, nil, trials, seed)
	if err != nil {
		return err
	}
	if err := emit(w, format, hy); err != nil {
		return err
	}

	gr, err := experiment.GreedyVsOptimal(50, nil, trials, seed)
	if err != nil {
		return err
	}
	if err := emit(w, format, gr); err != nil {
		return err
	}

	hist, err := experiment.SizeHistogram(50, 0.05, 100, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Optimal-size histogram (50 nodes/side, density 0.05, 100 graphs)")
	sizes := make([]int, 0, len(hist))
	for s := range hist {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	for _, s := range sizes {
		fmt.Fprintf(w, "  size %2d: %d\n", s, hist[s])
	}
	fmt.Fprintln(w)

	bw, err := experiment.ThroughputSweep(experiment.Options{Trials: trials, Seed: seed})
	if err != nil {
		return err
	}
	return emit(w, format, bw)
}

func emit(w io.Writer, format string, results ...*experiment.Result) error {
	for _, r := range results {
		var err error
		switch format {
		case "table":
			err = r.WriteTable(w)
		case "csv":
			err = r.WriteCSV(w)
		case "plot":
			err = r.WriteASCIIPlot(w, 16)
		default:
			return fmt.Errorf("unknown format %q", format)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
