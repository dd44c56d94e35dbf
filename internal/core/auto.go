package core

import (
	"mixedclock/internal/bipartite"
	"mixedclock/internal/vclock"
)

// Backend auto-selection. BenchmarkBackends (the flat-vs-tree head-to-head
// over four workload shapes) shows the representations win in different
// regimes:
//
//   - flat wins narrow clocks outright — O(k) with tiny constants beats tree
//     bookkeeping until k is in the low hundreds — and keeps winning at any
//     width when single joins touch most components (the wide-fanin shape:
//     a collector sweeping every producer's mailbox);
//   - tree wins wide clocks whose joins have causal locality (deep-join
//     ~1.3×, read-heavy ~1.6× at 256 components), because its cost scales
//     with the components a join actually changes.
//
// ChooseBackend encodes those crossovers so offline callers can say
// NewClockBackend(Auto) / -backend=auto and get the right representation for
// the observed computation.

const (
	// AutoTreeWidth is the component-set width at which the tree backend
	// starts winning on causally local joins. The original 128 was a
	// conservative guess from a 1-CPU dev box; the width-bracketed
	// BenchmarkBackends variants (deep-join / read-heavy at w = 64, 128,
	// 256) on CI-class hardware (Xeon @ 2.10GHz, Go 1.24, linux/amd64,
	// min ns/event of repeated 0.5s runs) put the crossover at or below
	// 64 components:
	//
	//	shape        width   flat     tree     tree speedup
	//	deep-join       64   247.7    229.0    1.08×
	//	deep-join      128   425.2    319.0    1.33×
	//	deep-join      256   808.0    544.6    1.48×
	//	read-heavy      64   283.6    214.5    1.32×
	//	read-heavy     128   463.4    312.0    1.49×
	//	read-heavy     256   889.9    572.5    1.55×
	//	seeded-hotset   29   330.5   1094      0.30× (flat 3.3×)
	//	wide-fanin     192   652.3   3107      0.21× (flat 4.8×)
	//
	// Tree wins every causally local shape from 64 components up, while
	// the narrow seeded-hotset (29) stays firmly flat, so 64 is the
	// data-backed cutoff. Below it flat's constants win regardless of
	// locality; above it the join shape (next constant) decides.
	AutoTreeWidth = 64
	// AutoFanInDivisor guards against the wide-fanin regime: when the
	// widest single join can touch more than width/AutoFanInDivisor
	// components there is no locality for the tree to exploit, and the
	// flat scan's constants win even at large widths — the table's
	// wide-fanin row (fan-in ≈ width, flat 4.8× ahead at 192 components)
	// against its deep-join/read-heavy rows (fan-in of a few, tree ahead)
	// brackets the guard; 4 keeps a safety margin on the flat side.
	AutoFanInDivisor = 4
)

// ChooseBackend picks a concrete clock representation from the observed
// component-set width and join shape. maxFanIn is the width of the widest
// single join expected — the maximum vertex degree of the thread–object
// graph is a sound static proxy (a thread of degree d can have absorbed at
// most d objects' histories since its last event on any one of them). Pass
// 0 when unknown; the width threshold alone then decides.
func ChooseBackend(width, maxFanIn int) vclock.Backend {
	if width >= AutoTreeWidth && maxFanIn*AutoFanInDivisor <= width {
		return vclock.BackendTree
	}
	return vclock.BackendFlat
}

// ResolveBackend resolves BackendAuto against observed state; concrete
// backends pass through unchanged.
func ResolveBackend(b vclock.Backend, width, maxFanIn int) vclock.Backend {
	if b != vclock.BackendAuto {
		return b
	}
	return ChooseBackend(width, maxFanIn)
}

// MaxFanIn returns the maximum vertex degree of g over both sides — the
// join-shape statistic ChooseBackend consumes.
func MaxFanIn(g *bipartite.Graph) int {
	max := 0
	for t := 0; t < g.NThreads(); t++ {
		if d := g.ThreadDegree(t); d > max {
			max = d
		}
	}
	for o := 0; o < g.NObjects(); o++ {
		if d := g.ObjectDegree(o); d > max {
			max = d
		}
	}
	return max
}
