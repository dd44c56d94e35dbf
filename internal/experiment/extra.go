package experiment

import (
	"fmt"
	"math/rand"

	"mixedclock/internal/baseline"
	"mixedclock/internal/bipartite"
	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/matching"
	"mixedclock/internal/trace"
)

// Ablations beyond the paper's four figures, one per design choice the
// paper leaves open: how the mixed clock behaves on structured workloads
// rather than random graphs, how sensitive the online mechanisms are to
// reveal order, and where the Hybrid thresholds should sit.

// WorkloadClockSizes compares clock sizes across the built-in workload
// families: classical thread- and object-based clocks, the chain-clock
// baseline, the offline optimal mixed clock, and the online Popularity
// mixed clock. One Result with workload index on the x-axis (see
// WorkloadNames for labels).
func WorkloadClockSizes(threads, objects, events, trials int, seed int64) (*Result, []string, error) {
	if trials <= 0 {
		trials = 5
	}
	workloads := trace.Workloads()
	names := make([]string, len(workloads))
	r := &Result{
		Title:  fmt.Sprintf("Clock sizes by workload (%d threads, %d objects, %d events)", threads, objects, events),
		XLabel: "workload",
		YLabel: "components",
		Series: []Series{
			{Name: "thread-based", Values: make([]float64, len(workloads))},
			{Name: "object-based", Values: make([]float64, len(workloads))},
			{Name: "chain", Values: make([]float64, len(workloads))},
			{Name: seriesPopularity, Values: make([]float64, len(workloads))},
			{Name: seriesOffline, Values: make([]float64, len(workloads))},
		},
	}
	cfg := trace.Config{Threads: threads, Objects: objects, Events: events}
	for wi, w := range workloads {
		names[wi] = w.String()
		r.X = append(r.X, float64(wi))
		var sums [5]float64
		for trial := 0; trial < trials; trial++ {
			rng := trialRng(seed, wi, trial)
			tr, err := trace.Generate(w, cfg, rng)
			if err != nil {
				return nil, nil, fmt.Errorf("experiment: workload %v: %w", w, err)
			}
			// Classical sizes count active entities (those appearing in the
			// computation), matching how the online naive mechanisms grow.
			sums[0] += float64(tr.Threads())
			sums[1] += float64(tr.Objects())
			cc := baseline.NewChainClock()
			clock.Run(tr, cc)
			sums[2] += float64(cc.Components())
			oc := core.NewOnlineMixedClock(core.Popularity{})
			clock.Run(tr, oc)
			sums[3] += float64(oc.Components())
			sums[4] += float64(core.AnalyzeTrace(tr).VectorSize())
		}
		for si := range r.Series {
			r.Series[si].Values[wi] = sums[si] / float64(trials)
		}
	}
	return r, names, nil
}

// RevealOrderSensitivity measures how much the Popularity mechanism's final
// size varies across random reveal orders of the same graph: for each
// density, the min, mean and max size over `orders` shuffles. The offline
// optimum (order-independent) is included as the floor.
func RevealOrderSensitivity(nodes int, densities []float64, orders int, seed int64) (*Result, error) {
	if orders <= 0 {
		orders = 20
	}
	if len(densities) == 0 {
		densities = []float64{0.02, 0.05, 0.1, 0.2}
	}
	r := &Result{
		Title:  fmt.Sprintf("Popularity size vs reveal order (%d nodes/side, %d orders)", nodes, orders),
		XLabel: "density",
		YLabel: "vector clock size",
		Series: []Series{
			{Name: "pop-min", Values: make([]float64, len(densities))},
			{Name: "pop-mean", Values: make([]float64, len(densities))},
			{Name: "pop-max", Values: make([]float64, len(densities))},
			{Name: seriesOffline, Values: make([]float64, len(densities))},
		},
	}
	for i, d := range densities {
		rng := trialRng(seed, i, 0)
		g, err := bipartite.Generate(bipartite.GenConfig{
			NThreads: nodes, NObjects: nodes, Density: d,
		}, rng)
		if err != nil {
			return nil, err
		}
		minSize, maxSize, sum := int(^uint(0)>>1), 0, 0
		for k := 0; k < orders; k++ {
			size := core.SimulateCover(g.RevealOrder(rng), core.Popularity{})
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			sum += size
		}
		r.X = append(r.X, d)
		r.Series[0].Values[i] = float64(minSize)
		r.Series[1].Values[i] = float64(sum) / float64(orders)
		r.Series[2].Values[i] = float64(maxSize)
		r.Series[3].Values[i] = float64(core.Analyze(g).VectorSize())
	}
	return r, nil
}

// HybridThresholdSweep evaluates the Hybrid mechanism's density threshold:
// for each candidate threshold, the mean final size across a mixed bag of
// sparse and dense graphs. It demonstrates the conclusion's advice — start
// with Popularity, switch to Naive when the revealed graph gets dense.
func HybridThresholdSweep(nodes int, thresholds []float64, trials int, seed int64) (*Result, error) {
	if trials <= 0 {
		trials = 5
	}
	if len(thresholds) == 0 {
		thresholds = []float64{0.05, 0.1, 0.2, 0.4, 0.8}
	}
	// The bag mixes the density regimes from Fig. 4 where different
	// mechanisms win.
	densities := []float64{0.02, 0.05, 0.1, 0.3, 0.6}
	r := &Result{
		Title:  fmt.Sprintf("Hybrid density-threshold sweep (%d nodes/side)", nodes),
		XLabel: "density threshold",
		YLabel: "mean vector clock size",
		Series: []Series{
			{Name: "hybrid", Values: make([]float64, len(thresholds))},
			{Name: seriesNaive, Values: make([]float64, len(thresholds))},
			{Name: seriesPopularity, Values: make([]float64, len(thresholds))},
		},
	}
	for ti, th := range thresholds {
		var sums [3]float64
		count := 0
		for di, d := range densities {
			for trial := 0; trial < trials; trial++ {
				// Keyed by (density, trial) only, so every threshold sees
				// the same graphs and only the hybrid series varies.
				rng := trialRng(seed, di, trial)
				g, err := bipartite.Generate(bipartite.GenConfig{
					NThreads: nodes, NObjects: nodes, Density: d,
				}, rng)
				if err != nil {
					return nil, err
				}
				order := g.RevealOrder(rng)
				h := core.Hybrid{Primary: core.Popularity{}, Fallback: core.NaiveThreads{},
					MaxDensity: th, MaxNodes: 1 << 30}
				sums[0] += float64(core.SimulateCover(order, h))
				sums[1] += float64(core.SimulateCover(order, core.NaiveThreads{}))
				sums[2] += float64(core.SimulateCover(order, core.Popularity{}))
				count++
			}
		}
		r.X = append(r.X, th)
		for si := range sums {
			r.Series[si].Values[ti] = sums[si] / float64(count)
		}
	}
	return r, nil
}

// GreedyVsOptimal quantifies what optimality buys: mean cover size of the
// greedy heuristic vs the exact König cover across densities.
func GreedyVsOptimal(nodes int, densities []float64, trials int, seed int64) (*Result, error) {
	if trials <= 0 {
		trials = 5
	}
	if len(densities) == 0 {
		densities = []float64{0.02, 0.05, 0.1, 0.2, 0.4}
	}
	r := &Result{
		Title:  fmt.Sprintf("Greedy cover vs optimal (%d nodes/side)", nodes),
		XLabel: "density",
		YLabel: "cover size",
		Series: []Series{
			{Name: "greedy", Values: make([]float64, len(densities))},
			{Name: seriesOffline, Values: make([]float64, len(densities))},
		},
	}
	for i, d := range densities {
		var greedySum, optSum float64
		for trial := 0; trial < trials; trial++ {
			rng := trialRng(seed, i, trial)
			g, err := bipartite.Generate(bipartite.GenConfig{
				NThreads: nodes, NObjects: nodes, Density: d,
			}, rng)
			if err != nil {
				return nil, err
			}
			greedySum += float64(matching.GreedyCover(g).Size())
			optSum += float64(core.Analyze(g).VectorSize())
		}
		r.X = append(r.X, d)
		r.Series[0].Values[i] = greedySum / float64(trials)
		r.Series[1].Values[i] = optSum / float64(trials)
	}
	return r, nil
}

// SizeHistogram builds a histogram of optimal sizes across many random
// graphs at one configuration — a distributional view the paper's mean
// curves hide.
func SizeHistogram(nodes int, density float64, samples int, seed int64) (map[int]int, error) {
	if samples <= 0 {
		samples = 50
	}
	hist := make(map[int]int)
	for k := 0; k < samples; k++ {
		rng := rand.New(rand.NewSource(seed + int64(k)))
		g, err := bipartite.Generate(bipartite.GenConfig{
			NThreads: nodes, NObjects: nodes, Density: density,
		}, rng)
		if err != nil {
			return nil, err
		}
		hist[core.Analyze(g).VectorSize()]++
	}
	return hist, nil
}
