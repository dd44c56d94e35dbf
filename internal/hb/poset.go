package hb

import (
	"mixedclock/internal/bipartite"
	"mixedclock/internal/matching"
)

// Width returns the maximum antichain size of the computation's poset, via
// Dilworth's theorem: the minimum number of chains covering the poset equals
// the width, and the minimum chain cover of a DAG with n events equals
// n − M where M is a maximum matching of the comparability split graph
// (event i on the left connected to event j on the right iff i → j).
//
// The width lower-bounds the components of any chain-based clock (the
// Agarwal–Garg baseline), which is why the evaluation reports it.
//
// Cost is O(n²) space for the split graph; intended for analysis, not hot
// paths.
func (o *Oracle) Width() int {
	if o.n == 0 {
		return 0
	}
	return o.n - o.splitMatching().Size()
}

// splitMatching returns a maximum matching of the comparability split graph.
func (o *Oracle) splitMatching() *matching.Matching {
	split := bipartite.New(o.n, o.n)
	for i := 0; i < o.n; i++ {
		for _, j := range o.after[i].members() {
			split.AddEdge(i, j)
		}
	}
	return matching.HopcroftKarp(split)
}
