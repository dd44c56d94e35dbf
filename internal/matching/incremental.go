package matching

import "slices"

// Incremental maintains a maximum matching of a thread–object bipartite
// graph whose edges arrive one at a time, as they do on a live tracker:
// every commit reveals at most one new (thread, object) edge. By
// König–Egerváry the matching size is also the minimum-vertex-cover size,
// so Size is a live lower bound on the optimal mixed-clock width — the
// monitor compares it against the tracker's actual component count to
// report how far the online mechanism has drifted from optimal.
//
// Inserting a single edge grows the maximum matching by at most one, and
// when it grows there is an augmenting path through the new edge, so each
// AddEdge runs at most one augmentation sweep from the currently unmatched
// threads (O(U·E) worst case, O(E) typical). Both sides grow on demand;
// vertex IDs are dense, as produced by the tracker's registries.
//
// Almost every edge a live stream reveals is a repeat, so the duplicate
// check is the common case, and it is dense per thread: a repeat of the
// thread's previous edge is one comparison, and any other edge a search of
// the thread's sorted adjacency, in O(log degree) with no hashing. The
// whole structure holds O(threads + objects + edges), however sparse the
// IDs.
type Incremental struct {
	adj     [][]int // adj[t] = objects adjacent to thread t, ascending
	last    []int   // last[t] = the object of thread t's previous edge
	match   *Matching
	edges   int
	visited []bool // by object; scratch for try
}

// NewIncremental returns an empty incremental matcher.
func NewIncremental() *Incremental {
	return &Incremental{match: newMatching(0, 0)}
}

// grow extends both sides to cover thread t and object o.
func (inc *Incremental) grow(t, o int) {
	for len(inc.adj) <= t {
		inc.adj = append(inc.adj, nil)
		inc.last = append(inc.last, -1)
		inc.match.ThreadMatch = append(inc.match.ThreadMatch, unmatched)
	}
	for len(inc.match.ObjectMatch) <= o {
		inc.match.ObjectMatch = append(inc.match.ObjectMatch, unmatched)
	}
}

// AddEdge records that thread t accessed object o and restores matching
// maximality. It reports whether the matching grew. Duplicate edges and
// negative IDs are ignored.
func (inc *Incremental) AddEdge(t, o int) bool {
	if t < 0 || o < 0 {
		return false
	}
	if t < len(inc.adj) && inc.last[t] == o {
		return false
	}
	inc.grow(t, o)
	inc.last[t] = o
	i, dup := slices.BinarySearch(inc.adj[t], o)
	if dup {
		return false
	}
	inc.adj[t] = slices.Insert(inc.adj[t], i, o)
	inc.edges++

	// A new edge admits at most one augmenting path, and any such path
	// ends at an unmatched thread; try the edge's own thread first since
	// the path most often starts there.
	if inc.match.ThreadMatch[t] == unmatched && inc.try(t) {
		inc.match.size++
		return true
	}
	for u := range inc.adj {
		if u != t && inc.match.ThreadMatch[u] == unmatched && inc.try(u) {
			inc.match.size++
			return true
		}
	}
	return false
}

// try runs one Kuhn augmentation sweep from thread t, reusing the visited
// buffer across sweeps.
func (inc *Incremental) try(t int) bool {
	n := len(inc.match.ObjectMatch)
	if cap(inc.visited) < n {
		inc.visited = make([]bool, n)
	}
	inc.visited = inc.visited[:n]
	clear(inc.visited)
	return inc.augment(t)
}

// augment is try's depth-first search for an augmenting path from t.
func (inc *Incremental) augment(t int) bool {
	for _, o := range inc.adj[t] {
		if inc.visited[o] {
			continue
		}
		inc.visited[o] = true
		if inc.match.ObjectMatch[o] == unmatched || inc.augment(inc.match.ObjectMatch[o]) {
			inc.match.ThreadMatch[t] = o
			inc.match.ObjectMatch[o] = t
			return true
		}
	}
	return false
}

// Size returns the current maximum-matching size, which by König–Egerváry
// equals the minimum vertex cover of the revealed graph — a lower bound on
// any mixed clock's width for the edges seen so far.
func (inc *Incremental) Size() int { return inc.match.size }

// Edges returns the number of distinct edges revealed so far.
func (inc *Incremental) Edges() int { return inc.edges }

// Matching exposes the current matching. The returned value is live; it
// must not be mutated and is invalidated by the next AddEdge.
func (inc *Incremental) Matching() *Matching { return inc.match }
