package experiment

import (
	"fmt"
	"math/rand"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/core"
)

// Options control a figure reproduction. The zero value reproduces the
// paper's setup.
type Options struct {
	// Trials is the number of random graphs averaged per point (default
	// 10).
	Trials int
	// Seed is the base seed; trial k of point i uses a deterministic
	// function of (Seed, i, k).
	Seed int64
	// Nodes is the per-side node count for the density sweeps of Fig. 4
	// and Fig. 6 (default 50, the paper's setting).
	Nodes int
	// Density is the fixed density for the node sweeps of Fig. 5 and
	// Fig. 7 (default 0.05, the paper's setting).
	Density float64
	// Densities is the x-axis of the density sweeps (default the paper's
	// 0.01–0.9 range).
	Densities []float64
	// NodeCounts is the x-axis of the node sweeps (default 10–150 in steps
	// of 10, covering the paper's crossover at ≈70).
	NodeCounts []int
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Nodes == 0 {
		o.Nodes = 50
	}
	if o.Density == 0 {
		o.Density = 0.05
	}
	if len(o.Densities) == 0 {
		o.Densities = []float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9}
	}
	if len(o.NodeCounts) == 0 {
		o.NodeCounts = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150}
	}
	return o
}

// trialRng derives an independent RNG per (point, trial) so adding points
// never perturbs other points' randomness.
func trialRng(seed int64, point, trial int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(point)*1_000_003 + int64(trial)*7_919))
}

// seriesNames used across figures.
const (
	// seriesNaive is the paper's Naive mechanism reported the paper's way:
	// "a vector clock with size equal to the number of threads … for all
	// computations" — a constant n, the flat line in Figs. 4–7.
	seriesNaive = "naive"
	// seriesNaiveActive is our stricter accounting of the same mechanism:
	// only threads that actually appear in the computation ever receive a
	// component. Coincides with seriesNaive except on very sparse graphs.
	seriesNaiveActive = "naive-active"
	seriesRandom      = "random"
	seriesPopularity  = "popularity"
	seriesOffline     = "offline-optimal"
)

// A sizer measures the final clock size of every online series over one
// reveal order. The figures use onlineSizes (core.SimulateCover);
// live_test.go's liveSizes drives a real track.Tracker through the same
// sweeps and must produce the same numbers. Both consume rng identically —
// one draw per uncovered new edge of the Random series — so a figure's
// numbers are reproducible.
type sizer func(order []bipartite.Edge, nThreads int, rng *rand.Rand) map[string]int

// onlineSizes runs the §IV mechanisms over one reveal order and returns
// final sizes keyed by series name. The Random mechanism draws from rng so
// results stay reproducible.
func onlineSizes(order []bipartite.Edge, nThreads int, rng *rand.Rand) map[string]int {
	return map[string]int{
		seriesNaive:       nThreads,
		seriesNaiveActive: core.SimulateCover(order, core.NaiveThreads{}),
		seriesRandom:      core.SimulateCover(order, core.Random{Rng: rng}),
		seriesPopularity:  core.SimulateCover(order, core.Popularity{}),
	}
}

// sweepPoint measures mean sizes for one graph configuration across trials.
// Series include the online mechanisms (measured by sz) and the offline
// optimum.
func sweepPoint(cfg bipartite.GenConfig, opt Options, point int, sz sizer) (map[string]float64, error) {
	sums := map[string]float64{}
	for trial := 0; trial < opt.Trials; trial++ {
		rng := trialRng(opt.Seed, point, trial)
		g, err := bipartite.Generate(cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("experiment: point %d trial %d: %w", point, trial, err)
		}
		order := g.RevealOrder(rng)
		for name, size := range sz(order, cfg.NThreads, rng) {
			sums[name] += float64(size)
		}
		sums[seriesOffline] += float64(core.Analyze(g).VectorSize())
	}
	means := make(map[string]float64, len(sums))
	for name, sum := range sums {
		means[name] = sum / float64(opt.Trials)
	}
	return means, nil
}

// densitySweep builds a Result over opt.Densities for one scenario,
// including the named series.
func densitySweep(title string, scenario bipartite.Scenario, opt Options, series []string, sz sizer) (*Result, error) {
	r := &Result{
		Title:  title,
		XLabel: "density",
		YLabel: "vector clock size",
	}
	r.Series = make([]Series, len(series))
	for i, name := range series {
		r.Series[i] = Series{Name: name, Values: make([]float64, len(opt.Densities))}
	}
	for i, d := range opt.Densities {
		cfg := bipartite.GenConfig{
			NThreads: opt.Nodes, NObjects: opt.Nodes,
			Density: d, Scenario: scenario,
		}
		means, err := sweepPoint(cfg, opt, i, sz)
		if err != nil {
			return nil, err
		}
		r.X = append(r.X, d)
		for j, name := range series {
			r.Series[j].Values[i] = means[name]
		}
	}
	return r, nil
}

// nodeSweep builds a Result over opt.NodeCounts at fixed opt.Density.
func nodeSweep(title string, scenario bipartite.Scenario, opt Options, series []string, sz sizer) (*Result, error) {
	r := &Result{
		Title:  title,
		XLabel: "nodes per side",
		YLabel: "vector clock size",
	}
	r.Series = make([]Series, len(series))
	for i, name := range series {
		r.Series[i] = Series{Name: name, Values: make([]float64, len(opt.NodeCounts))}
	}
	for i, n := range opt.NodeCounts {
		cfg := bipartite.GenConfig{
			NThreads: n, NObjects: n,
			Density: opt.Density, Scenario: scenario,
		}
		means, err := sweepPoint(cfg, opt, i, sz)
		if err != nil {
			return nil, err
		}
		r.X = append(r.X, float64(n))
		for j, name := range series {
			r.Series[j].Values[i] = means[name]
		}
	}
	return r, nil
}

// onlineSeries are the §IV mechanisms compared in Figs. 4 and 5, plus our
// stricter naive accounting.
func onlineSeries() []string {
	return []string{seriesNaive, seriesNaiveActive, seriesRandom, seriesPopularity}
}

// offlineSeries adds the offline optimum, as in Figs. 6 and 7.
func offlineSeries() []string {
	return []string{seriesNaive, seriesNaiveActive, seriesPopularity, seriesOffline}
}

// fig4 is the body of Fig4, parameterized by sizer so TestLiveEquivalence
// can run the same sweep on a live tracker.
func fig4(opt Options, sz sizer) (uniform, nonuniform *Result, err error) {
	opt = opt.withDefaults()
	uniform, err = densitySweep(
		fmt.Sprintf("Fig. 4a — online mechanisms vs density (uniform, %d nodes/side)", opt.Nodes),
		bipartite.Uniform, opt, onlineSeries(), sz)
	if err != nil {
		return nil, nil, err
	}
	nonuniform, err = densitySweep(
		fmt.Sprintf("Fig. 4b — online mechanisms vs density (nonuniform, %d nodes/side)", opt.Nodes),
		bipartite.Nonuniform, opt, onlineSeries(), sz)
	if err != nil {
		return nil, nil, err
	}
	return uniform, nonuniform, nil
}

// Fig4 reproduces "Vector Size Varies as Graph Density Increases": 50
// threads and 50 objects, density sweep, Naive vs Random vs Popularity, one
// Result per scenario (Uniform, Nonuniform).
func Fig4(opt Options) (uniform, nonuniform *Result, err error) {
	return fig4(opt, onlineSizes)
}

// fig5 is the body of Fig5, parameterized by sizer as fig4 is.
func fig5(opt Options, sz sizer) (uniform, nonuniform *Result, err error) {
	opt = opt.withDefaults()
	uniform, err = nodeSweep(
		fmt.Sprintf("Fig. 5a — online mechanisms vs nodes (uniform, density %.2f)", opt.Density),
		bipartite.Uniform, opt, onlineSeries(), sz)
	if err != nil {
		return nil, nil, err
	}
	nonuniform, err = nodeSweep(
		fmt.Sprintf("Fig. 5b — online mechanisms vs nodes (nonuniform, density %.2f)", opt.Density),
		bipartite.Nonuniform, opt, onlineSeries(), sz)
	if err != nil {
		return nil, nil, err
	}
	return uniform, nonuniform, nil
}

// Fig5 reproduces "Vector Size Varies as Number of Nodes Increases":
// density 0.05, node sweep, Naive vs Random vs Popularity, per scenario.
func Fig5(opt Options) (uniform, nonuniform *Result, err error) {
	return fig5(opt, onlineSizes)
}

// fig6 is the body of Fig6, parameterized by sizer as fig4 is.
func fig6(opt Options, sz sizer) (*Result, error) {
	opt = opt.withDefaults()
	return densitySweep(
		fmt.Sprintf("Fig. 6 — offline optimum vs online vs density (uniform, %d nodes/side)", opt.Nodes),
		bipartite.Uniform, opt, offlineSeries(), sz)
}

// Fig6 reproduces "offline vs online as density increases": 50 nodes per
// side, density sweep, Naive vs Popularity (online) vs the offline optimum,
// on uniform graphs.
func Fig6(opt Options) (*Result, error) {
	return fig6(opt, onlineSizes)
}

// fig7 is the body of Fig7, parameterized by sizer as fig4 is.
func fig7(opt Options, sz sizer) (*Result, error) {
	opt = opt.withDefaults()
	return nodeSweep(
		fmt.Sprintf("Fig. 7 — offline optimum vs online vs nodes (uniform, density %.2f)", opt.Density),
		bipartite.Uniform, opt, offlineSeries(), sz)
}

// Fig7 reproduces "offline vs online as the number of nodes increases":
// density 0.05, node sweep, Naive vs Popularity vs offline optimum, uniform
// graphs.
func Fig7(opt Options) (*Result, error) {
	return fig7(opt, onlineSizes)
}
