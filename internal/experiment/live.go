package experiment

import (
	"fmt"

	"mixedclock/internal/loadgen"
)

// sweepThreads is the x-axis of ThroughputSweep and sweepOps the measured
// ops per worker per trial — fixed-op deterministic runs, so the sweep is
// reproducible and trials average real repeated measurements.
var sweepThreads = []int{1, 2, 4, 8}

const sweepOps = 20_000

// ThroughputSweep measures end-to-end tracker throughput in mops/sec
// across read fraction (0.5, 0.95) × commit style (per-op Do vs batch-16)
// over a worker-count axis, using the loadgen engine in deterministic ops
// mode. This is the "extra" sweep cmd/figures emits beyond the paper's §V:
// the paper compares clock widths, this compares what the widths buy at
// full speed.
func ThroughputSweep(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	type combo struct {
		batch    int
		readfrac float64
	}
	var combos []combo
	for _, batch := range []int{1, 16} {
		for _, rf := range []float64{0.5, 0.95} {
			combos = append(combos, combo{batch, rf})
		}
	}
	r := &Result{
		Title:  fmt.Sprintf("Extra — tracker throughput: readfrac × do/batch vs workers (%d ops/worker, %d trials)", sweepOps, opt.Trials),
		XLabel: "workers",
		YLabel: "mops/sec",
	}
	r.Series = make([]Series, len(combos))
	for i, c := range combos {
		style := "do"
		if c.batch > 1 {
			style = fmt.Sprintf("batch%d", c.batch)
		}
		r.Series[i] = Series{
			Name:   fmt.Sprintf("%s r%.2f", style, c.readfrac),
			Values: make([]float64, len(sweepThreads)),
		}
	}
	for pi, nw := range sweepThreads {
		r.X = append(r.X, float64(nw))
		for si, c := range combos {
			var sum float64
			for trial := 0; trial < opt.Trials; trial++ {
				rep, err := loadgen.Run(loadgen.Config{
					Threads:  nw,
					Objects:  64,
					ReadFrac: c.readfrac,
					Ops:      sweepOps,
					Warmup:   1000,
					Batch:    c.batch,
					Dist:     "uniform",
					Seed:     opt.Seed + int64(pi)*1_000_003 + int64(trial)*7_919,
				})
				if err != nil {
					return nil, fmt.Errorf("experiment: throughput sweep %s x=%d trial %d: %w",
						r.Series[si].Name, nw, trial, err)
				}
				sum += rep.Mops
			}
			r.Series[si].Values[pi] = sum / float64(opt.Trials)
		}
	}
	return r, nil
}
