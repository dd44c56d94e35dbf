package core

import (
	"fmt"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/event"
	"mixedclock/internal/matching"
)

// Analysis is the product of the offline algorithm (Algorithm 1) on one
// computation: the thread–object bipartite graph, a maximum matching, the
// minimum vertex cover derived from it, and the resulting optimal component
// set. |Cover| = |Matching| certifies optimality (König–Egerváry).
type Analysis struct {
	Graph      *bipartite.Graph
	Matching   *matching.Matching
	Cover      *matching.Cover
	Components *ComponentSet
}

// Analyze runs the offline algorithm on a thread–object bipartite graph:
// Hopcroft–Karp maximum matching, then the constructive König–Egerváry
// conversion to a minimum vertex cover, whose members become the mixed
// clock's components.
func Analyze(g *bipartite.Graph) *Analysis {
	m := matching.HopcroftKarp(g)
	c := matching.KonigCover(g, m)
	return &Analysis{
		Graph:      g,
		Matching:   m,
		Cover:      c,
		Components: FromCover(c),
	}
}

// AnalyzeTrace projects tr onto its bipartite graph and runs Analyze.
func AnalyzeTrace(tr *event.Trace) *Analysis {
	return Analyze(bipartite.FromTrace(tr))
}

// NewClock returns a fresh offline mixed clock over the analysis'
// optimal components, ready to timestamp the analyzed computation (or any
// computation whose graph is a subgraph of the analyzed one).
func (a *Analysis) NewClock() *MixedClock {
	return NewMixedClock(a.Components)
}

// VectorSize returns the size of the optimal mixed vector clock.
func (a *Analysis) VectorSize() int { return a.Components.Len() }

// Verify re-checks the analysis invariants: the matching is consistent with
// the graph, the cover covers every edge, and |cover| = |matching| (the
// optimality certificate). It returns nil when everything holds.
func (a *Analysis) Verify() error {
	if err := a.Matching.Verify(a.Graph); err != nil {
		return fmt.Errorf("core: analysis matching: %w", err)
	}
	if err := a.Cover.Verify(a.Graph); err != nil {
		return fmt.Errorf("core: analysis cover: %w", err)
	}
	if a.Cover.Size() != a.Matching.Size() {
		return fmt.Errorf("core: cover size %d != matching size %d — König certificate violated",
			a.Cover.Size(), a.Matching.Size())
	}
	if a.Components.Len() != a.Cover.Size() {
		return fmt.Errorf("core: component set size %d != cover size %d",
			a.Components.Len(), a.Cover.Size())
	}
	return nil
}

// Savings reports how many components the mixed clock saves over the best
// classical clock for this graph: min(active threads, active objects) −
// optimal size. Isolated vertices never need components under any scheme, so
// the classical sizes count only vertices with at least one edge.
func (a *Analysis) Savings() int {
	activeT := a.Graph.NThreads() - len(a.Graph.IsolatedThreads())
	activeO := a.Graph.NObjects() - len(a.Graph.IsolatedObjects())
	classical := activeT
	if activeO < classical {
		classical = activeO
	}
	return classical - a.VectorSize()
}
