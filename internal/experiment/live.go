// Live figure reproduction: the same §V sweeps as figures.go, but measured
// by driving a real track.Tracker — threads, objects, per-event commits,
// the concurrent cover path — instead of core.SimulateCover's offline
// replay. The numbers are identical by construction (the tracker's cover
// consults the mechanism once per uncovered new edge, in reveal order,
// exactly as SimulateCover does; live_test.go pins the equivalence), so a
// figure regenerated live is a regression test of the whole modern
// pipeline, not just of the algorithm.
//
// BackendWidthSweep goes beyond the paper: an end-to-end throughput sweep
// (backend × read ratio × do-vs-batch over a thread-count axis) on the
// loadgen engine, reported in mops/sec — the "extra" figure cmd/figures
// emits next to the paper's four.
package experiment

import (
	"fmt"
	"math/rand"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/loadgen"
	"mixedclock/internal/track"
	"mixedclock/internal/vclock"
)

// liveCoverSize replays one reveal order through a live tracker built on
// the given mechanism and backend, one committed write per edge, and
// returns the final mixed-clock width.
func liveCoverSize(order []bipartite.Edge, m core.Mechanism, b vclock.Backend) int {
	t, err := track.Open("", track.WithMechanism(m), track.WithBackend(b))
	if err != nil {
		panic(err) // unreachable: an in-memory tracker without a Store validates
	}
	maxT, maxO := -1, -1
	for _, e := range order {
		if e.Thread > maxT {
			maxT = e.Thread
		}
		if e.Object > maxO {
			maxO = e.Object
		}
	}
	threads := make([]*track.Thread, maxT+1)
	for i := range threads {
		threads[i] = t.NewThread(fmt.Sprintf("t%d", i))
	}
	objects := make([]*track.Object, maxO+1)
	for i := range objects {
		objects[i] = t.NewObject(fmt.Sprintf("o%d", i))
	}
	for _, e := range order {
		threads[e.Thread].Do(objects[e.Object], event.OpWrite, nil)
	}
	return t.Size()
}

// liveSizes is the live-pipeline sizer: same series, same rng consumption
// order as onlineSizes (one Random draw per uncovered new edge, evaluated
// naive-active → random → popularity), but each size measured on a real
// tracker.
func liveSizes(backend vclock.Backend) sizer {
	return func(order []bipartite.Edge, nThreads int, rng *rand.Rand) map[string]int {
		return map[string]int{
			seriesNaive:       nThreads,
			seriesNaiveActive: liveCoverSize(order, core.NaiveThreads{}, backend),
			seriesRandom:      liveCoverSize(order, core.Random{Rng: rng}, backend),
			seriesPopularity:  liveCoverSize(order, core.Popularity{}, backend),
		}
	}
}

// Fig4Live reproduces Fig. 4 through the live tracker pipeline on the given
// clock backend. Identical numbers to Fig4 (pinned by test); what it
// additionally proves is that the tracker's concurrent cover path realizes
// the paper's mechanisms exactly.
func Fig4Live(opt Options, backend vclock.Backend) (uniform, nonuniform *Result, err error) {
	return fig4(opt, liveSizes(backend))
}

// Fig5Live reproduces Fig. 5 through the live tracker pipeline.
func Fig5Live(opt Options, backend vclock.Backend) (uniform, nonuniform *Result, err error) {
	return fig5(opt, liveSizes(backend))
}

// Fig6Live reproduces Fig. 6 through the live tracker pipeline (the offline
// optimum series is computed offline in both variants — it has no online
// realization to drive).
func Fig6Live(opt Options, backend vclock.Backend) (*Result, error) {
	return fig6(opt, liveSizes(backend))
}

// Fig7Live reproduces Fig. 7 through the live tracker pipeline.
func Fig7Live(opt Options, backend vclock.Backend) (*Result, error) {
	return fig7(opt, liveSizes(backend))
}

// sweepThreads is the x-axis of BackendWidthSweep and sweepOps the measured
// ops per worker per trial — fixed-op deterministic runs, so the sweep is
// reproducible and trials average real repeated measurements.
var sweepThreads = []int{1, 2, 4, 8}

const sweepOps = 20_000

// BackendWidthSweep measures end-to-end tracker throughput in mops/sec
// across backend (flat, tree) × read fraction (0.5, 0.95) × commit style
// (per-op Do vs batch-16) over a worker-count axis, using the loadgen
// engine in deterministic ops mode. This is the "extra" sweep cmd/figures
// emits beyond the paper's §V: the paper compares clock widths, this
// compares what the widths buy at full speed.
func BackendWidthSweep(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	type combo struct {
		backend  string
		batch    int
		readfrac float64
	}
	var combos []combo
	for _, b := range []string{"flat", "tree"} {
		for _, batch := range []int{1, 16} {
			for _, rf := range []float64{0.5, 0.95} {
				combos = append(combos, combo{b, batch, rf})
			}
		}
	}
	r := &Result{
		Title:  fmt.Sprintf("Extra — tracker throughput: backend × readfrac × do/batch vs workers (%d ops/worker, %d trials)", sweepOps, opt.Trials),
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
			Name:   fmt.Sprintf("%s/%s r%.2f", c.backend, style, c.readfrac),
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
					Backend:  c.backend,
					Seed:     opt.Seed + int64(pi)*1_000_003 + int64(trial)*7_919,
				})
				if err != nil {
					return nil, fmt.Errorf("experiment: width sweep %s x=%d trial %d: %w",
						r.Series[si].Name, nw, trial, err)
				}
				sum += rep.Mops
			}
			r.Series[si].Values[pi] = sum / float64(opt.Trials)
		}
	}
	return r, nil
}
