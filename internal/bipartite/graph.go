// Package bipartite implements the thread–object bipartite graph of §III-A:
// the left side holds threads, the right side holds objects, and an edge
// (t, o) exists iff thread t performed at least one operation on object o in
// the computation. The minimum vertex cover of this graph is exactly the
// optimal component set for a mixed vector clock.
//
// The package also provides the random graph generators used by the paper's
// evaluation (§V): the Uniform scenario (every edge appears independently
// with the same probability) and the Nonuniform scenario (a small hot set of
// threads and objects attracts edges with much higher probability).
package bipartite

import (
	"fmt"
	"sort"

	"mixedclock/internal/event"
)

// Side distinguishes the two vertex classes.
type Side int

const (
	// Threads is the left side of the graph.
	Threads Side = iota + 1
	// Objects is the right side of the graph.
	Objects
)

// String returns "threads" or "objects".
func (s Side) String() string {
	switch s {
	case Threads:
		return "threads"
	case Objects:
		return "objects"
	default:
		return fmt.Sprintf("Side(%d)", int(s))
	}
}

// Graph is a thread–object bipartite graph with dense vertex IDs:
// threads 0..NThreads-1 on the left, objects 0..NObjects-1 on the right.
// The zero value is an empty graph; use AddEdge (or a constructor) to grow
// it. Parallel edges are coalesced: the graph records only whether a thread
// ever touched an object, matching the paper's definition.
type Graph struct {
	nThreads int
	nObjects int
	// adjT[t] lists object neighbours of thread t in insertion order;
	// adjO[o] lists thread neighbours of object o.
	adjT [][]int
	adjO [][]int
	// has provides O(1) duplicate-edge detection.
	has   map[[2]int]struct{}
	edges int
}

// New returns an empty graph with the given number of threads and objects.
// Both counts may be zero; the graph grows as edges are added.
func New(nThreads, nObjects int) *Graph {
	g := &Graph{has: make(map[[2]int]struct{})}
	g.EnsureThreads(nThreads)
	g.EnsureObjects(nObjects)
	return g
}

// FromTrace projects a computation onto its thread–object bipartite graph.
func FromTrace(tr *event.Trace) *Graph {
	g := New(tr.Threads(), tr.Objects())
	for _, e := range tr.Events() {
		g.AddEdge(int(e.Thread), int(e.Object))
	}
	return g
}

// EnsureThreads grows the left side to at least n vertices.
func (g *Graph) EnsureThreads(n int) {
	for g.nThreads < n {
		g.adjT = append(g.adjT, nil)
		g.nThreads++
	}
}

// EnsureObjects grows the right side to at least n vertices.
func (g *Graph) EnsureObjects(n int) {
	for g.nObjects < n {
		g.adjO = append(g.adjO, nil)
		g.nObjects++
	}
}

// AddEdge records that thread t operated on object o, growing the vertex
// sets if needed. It returns true if the edge is new, false if it already
// existed (the paper coalesces repeat operations into one edge).
func (g *Graph) AddEdge(t, o int) bool {
	if t < 0 || o < 0 {
		panic(fmt.Sprintf("bipartite: negative vertex (t=%d, o=%d)", t, o))
	}
	g.EnsureThreads(t + 1)
	g.EnsureObjects(o + 1)
	if g.lazyHas() {
		if _, ok := g.has[[2]int{t, o}]; ok {
			return false
		}
	}
	g.has[[2]int{t, o}] = struct{}{}
	g.adjT[t] = append(g.adjT[t], o)
	g.adjO[o] = append(g.adjO[o], t)
	g.edges++
	return true
}

// lazyHas initializes the duplicate-detection map for zero-value graphs and
// reports true (it exists purely so the zero value works).
func (g *Graph) lazyHas() bool {
	if g.has == nil {
		g.has = make(map[[2]int]struct{})
	}
	return true
}

// HasEdge reports whether thread t has operated on object o.
func (g *Graph) HasEdge(t, o int) bool {
	if g.has == nil {
		return false
	}
	_, ok := g.has[[2]int{t, o}]
	return ok
}

// NThreads returns the number of left-side vertices.
func (g *Graph) NThreads() int { return g.nThreads }

// NObjects returns the number of right-side vertices.
func (g *Graph) NObjects() int { return g.nObjects }

// Edges returns the number of distinct edges.
func (g *Graph) Edges() int { return g.edges }

// ThreadNeighbors returns the objects adjacent to thread t, in insertion
// order. The returned slice is shared with the graph; callers must not
// mutate it.
func (g *Graph) ThreadNeighbors(t int) []int { return g.adjT[t] }

// ObjectNeighbors returns the threads adjacent to object o, in insertion
// order. The returned slice is shared with the graph; callers must not
// mutate it.
func (g *Graph) ObjectNeighbors(o int) []int { return g.adjO[o] }

// ThreadDegree returns the degree of thread t (0 if t is out of range).
func (g *Graph) ThreadDegree(t int) int {
	if t < 0 || t >= g.nThreads {
		return 0
	}
	return len(g.adjT[t])
}

// ObjectDegree returns the degree of object o (0 if o is out of range).
func (g *Graph) ObjectDegree(o int) int {
	if o < 0 || o >= g.nObjects {
		return 0
	}
	return len(g.adjO[o])
}

// Density returns |E| / (|T|·|O|), the probability-normalized edge count the
// paper sweeps on its x-axes. Zero when either side is empty.
func (g *Graph) Density() float64 {
	if g.nThreads == 0 || g.nObjects == 0 {
		return 0
	}
	return float64(g.edges) / (float64(g.nThreads) * float64(g.nObjects))
}

// Popularity returns deg(v)/|E| per Definition 1 of the paper, for a vertex
// on the given side. It returns 0 for an empty graph.
func (g *Graph) Popularity(side Side, v int) float64 {
	if g.edges == 0 {
		return 0
	}
	var deg int
	switch side {
	case Threads:
		deg = g.ThreadDegree(v)
	case Objects:
		deg = g.ObjectDegree(v)
	default:
		panic(fmt.Sprintf("bipartite: bad side %d", int(side)))
	}
	return float64(deg) / float64(g.edges)
}

// Edge is one (thread, object) pair.
type Edge struct {
	Thread int
	Object int
}

// EdgeList returns all edges sorted by (thread, object). The order is
// deterministic regardless of insertion order. Threads are walked in ID
// order, so only each thread's own row needs sorting.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.edges)
	row := []int(nil)
	for t, objs := range g.adjT {
		row = append(row[:0], objs...)
		sort.Ints(row)
		for _, o := range row {
			out = append(out, Edge{Thread: t, Object: o})
		}
	}
	return out
}

// IsolatedThreads returns threads with no edges. They never constrain the
// vertex cover but matter when reporting clock-size baselines.
func (g *Graph) IsolatedThreads() []int {
	var out []int
	for t := 0; t < g.nThreads; t++ {
		if len(g.adjT[t]) == 0 {
			out = append(out, t)
		}
	}
	return out
}

// IsolatedObjects returns objects with no edges.
func (g *Graph) IsolatedObjects() []int {
	var out []int
	for o := 0; o < g.nObjects; o++ {
		if len(g.adjO[o]) == 0 {
			out = append(out, o)
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.nThreads, g.nObjects)
	for t, objs := range g.adjT {
		for _, o := range objs {
			c.AddEdge(t, o)
		}
	}
	return c
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("bipartite{threads=%d objects=%d edges=%d density=%.3f}",
		g.nThreads, g.nObjects, g.edges, g.Density())
}
