// Package replay manipulates linearizations of a recorded computation. A
// trace is one observed interleaving of a partial order; any other
// interleaving consistent with happened-before could equally have occurred.
// The utilities here re-order traces (for schedule exploration), verify
// candidate orders, and enumerate or sample alternative linearizations —
// the substrate for the schedule-sensitivity findings of package detect and
// for tests that check clock schemes are interleaving-independent. Each
// walks happened-before one covering edge at a time (hb.Adjacency), so
// checking or sampling an order takes O(E) memory.
package replay

import (
	"fmt"
	"math/rand"

	"mixedclock/internal/event"
	"mixedclock/internal/hb"
)

// IsLinearization reports whether perm (a permutation of event indices) is
// a legal interleaving of tr: every event appears exactly once and no event
// precedes one of its happened-before predecessors.
func IsLinearization(tr *event.Trace, perm []int) bool {
	if len(perm) != tr.Len() {
		return false
	}
	adj := hb.NewAdjacency(tr)
	placed := make([]bool, tr.Len())
	for _, idx := range perm {
		if idx < 0 || idx >= tr.Len() || placed[idx] {
			return false
		}
		// All immediate predecessors must already be placed; transitivity
		// then gives the full condition.
		if p := adj.ThreadPredecessor(idx); p >= 0 && !placed[p] {
			return false
		}
		if p := adj.ObjectPredecessor(idx); p >= 0 && !placed[p] {
			return false
		}
		placed[idx] = true
	}
	return true
}

// Reorder returns a new trace whose events follow perm. The permutation
// must be a legal linearization; the returned trace represents the same
// computation (same happened-before relation) scheduled differently.
// Event indices are reassigned to the new positions.
func Reorder(tr *event.Trace, perm []int) (*event.Trace, error) {
	if !IsLinearization(tr, perm) {
		return nil, fmt.Errorf("replay: permutation is not a linearization of the trace")
	}
	out := event.NewTrace()
	for _, idx := range perm {
		e := tr.At(idx)
		out.Append(e.Thread, e.Object, e.Op)
	}
	return out, nil
}

// RandomLinearization samples a uniform-ish alternative interleaving by
// repeatedly picking a random ready event (all predecessors emitted). The
// identity order has nonzero probability; use the rng seed to vary.
func RandomLinearization(tr *event.Trace, rng *rand.Rand) []int {
	adj, indeg := indegrees(tr)
	n := tr.Len()
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := make([]int, 0, n)
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		idx := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		out = append(out, idx)
		for _, succ := range []int{adj.ThreadSuccessor(idx), adj.ObjectSuccessor(idx)} {
			if succ < 0 {
				continue
			}
			indeg[succ]--
			if indeg[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}
	return out
}

// Enumerate visits every linearization of tr in lexicographic order,
// calling fn with a shared buffer (copy it to retain). Enumeration stops
// when fn returns false or when limit linearizations have been visited
// (limit ≤ 0 means no limit). It returns the number visited.
//
// The count of linearizations is exponential in the computation's width;
// use on small traces or with a limit.
func Enumerate(tr *event.Trace, limit int, fn func(perm []int) bool) int {
	adj, indeg := indegrees(tr)
	n := tr.Len()
	perm := make([]int, 0, n)
	placed := make([]bool, n)
	visited := 0
	stop := false

	var rec func()
	rec = func() {
		if stop {
			return
		}
		if len(perm) == n {
			visited++
			if !fn(perm) || (limit > 0 && visited >= limit) {
				stop = true
			}
			return
		}
		for i := 0; i < n && !stop; i++ {
			if placed[i] || indeg[i] != 0 {
				continue
			}
			placed[i] = true
			perm = append(perm, i)
			ts, os := adj.ThreadSuccessor(i), adj.ObjectSuccessor(i)
			if ts >= 0 {
				indeg[ts]--
			}
			if os >= 0 {
				indeg[os]--
			}
			rec()
			if ts >= 0 {
				indeg[ts]++
			}
			if os >= 0 {
				indeg[os]++
			}
			perm = perm[:len(perm)-1]
			placed[i] = false
		}
	}
	rec()
	return visited
}

// indegrees returns tr's covering edges and, per event, how many immediate
// predecessors (0, 1 or 2) it has: the ready-set bookkeeping of a
// topological sort.
func indegrees(tr *event.Trace) (*hb.Adjacency, []int) {
	adj := hb.NewAdjacency(tr)
	indeg := make([]int, tr.Len())
	for i := range indeg {
		if adj.ThreadPredecessor(i) >= 0 {
			indeg[i]++
		}
		if adj.ObjectPredecessor(i) >= 0 {
			indeg[i]++
		}
	}
	return adj, indeg
}

// CountLinearizations counts the interleavings of tr, up to limit (0 = no
// limit). A direct measure of how schedule-sensitive a computation is.
func CountLinearizations(tr *event.Trace, limit int) int {
	return Enumerate(tr, limit, func([]int) bool { return true })
}
