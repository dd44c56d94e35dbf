// Package hb computes the ground-truth happened-before relation of a
// computation (Lamport's relation restricted to the paper's model): the
// smallest transitive relation where e → f if e immediately precedes f on
// the same thread or on the same object.
//
// Adjacency holds those immediate edges in O(E), which is all that
// linearizations, the predicate lattice and cut consistency need. The
// Oracle adds full O(E²/64) reachability, so tests and clock.Validate can
// check a clock's validity — s → t ⇔ s.V < t.V — against an independent
// source of truth for every pair of events, plus the poset width that
// bounds the chain-clock baseline. Recent answers the same queries over a
// sliding window of a live stamp stream.
package hb

import (
	"fmt"
	"math/bits"

	"mixedclock/internal/event"
)

// Adjacency holds each event's immediate predecessor and successor in
// program order and in object order: the covering edges of happened-before.
type Adjacency struct {
	n int
	// succThread[i] / succObject[i] are the immediate successors of event i
	// in program order / object order, or -1; pred* likewise.
	succThread []int
	succObject []int
	predThread []int
	predObject []int
}

// NewAdjacency builds the covering edges of tr in one pass.
func NewAdjacency(tr *event.Trace) *Adjacency {
	n := tr.Len()
	a := &Adjacency{
		n:          n,
		succThread: fill(n, -1),
		succObject: fill(n, -1),
		predThread: fill(n, -1),
		predObject: fill(n, -1),
	}
	lastOfThread := fill(tr.Threads(), -1)
	lastOfObject := fill(tr.Objects(), -1)
	for i := 0; i < n; i++ {
		e := tr.At(i)
		if p := lastOfThread[e.Thread]; p >= 0 {
			a.succThread[p] = i
			a.predThread[i] = p
		}
		if p := lastOfObject[e.Object]; p >= 0 {
			a.succObject[p] = i
			a.predObject[i] = p
		}
		lastOfThread[e.Thread] = i
		lastOfObject[e.Object] = i
	}
	return a
}

// Len returns the number of events.
func (a *Adjacency) Len() int { return a.n }

// ThreadSuccessor returns the next event by the same thread, or -1.
func (a *Adjacency) ThreadSuccessor(i int) int { a.check(i); return a.succThread[i] }

// ObjectSuccessor returns the next event on the same object, or -1.
func (a *Adjacency) ObjectSuccessor(i int) int { a.check(i); return a.succObject[i] }

// ThreadPredecessor returns the previous event by the same thread, or -1.
func (a *Adjacency) ThreadPredecessor(i int) int { a.check(i); return a.predThread[i] }

// ObjectPredecessor returns the previous event on the same object, or -1.
func (a *Adjacency) ObjectPredecessor(i int) int { a.check(i); return a.predObject[i] }

func (a *Adjacency) check(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("hb: event index %d out of range [0, %d)", i, a.n))
	}
}

// Oracle answers happened-before queries for a fixed trace. It embeds the
// trace's Adjacency for the immediate predecessors and successors.
type Oracle struct {
	*Adjacency
	// after[i] is the bitset of events j with i → j (transitive, not
	// reflexive).
	after []bitset
}

// New builds the oracle for tr. Construction is O(E²/64) time and space in
// the number of events; it is the reference that tests and clock.Validate
// check timestamps against, not something to build on a production path.
func New(tr *event.Trace) *Oracle {
	o := &Oracle{Adjacency: NewAdjacency(tr)}
	n := o.n

	// The trace order is a linearization: an event's immediate successors
	// always have larger indices, so a reverse sweep computes the closure.
	o.after = make([]bitset, n)
	words := (n + 63) / 64
	for i := n - 1; i >= 0; i-- {
		b := newBitset(words)
		if s := o.succThread[i]; s >= 0 {
			b.set(s)
			b.or(o.after[s])
		}
		if s := o.succObject[i]; s >= 0 {
			b.set(s)
			b.or(o.after[s])
		}
		o.after[i] = b
	}
	return o
}

// HappenedBefore reports whether event i → event j (strict: an event does
// not happen before itself).
func (o *Oracle) HappenedBefore(i, j int) bool {
	o.check(i)
	o.check(j)
	return o.after[i].get(j)
}

// Comparable reports whether i → j or j → i.
func (o *Oracle) Comparable(i, j int) bool {
	return o.HappenedBefore(i, j) || o.HappenedBefore(j, i)
}

// Concurrent reports whether distinct events i and j are incomparable
// (i ‖ j in the paper's notation). An event is not concurrent with itself.
func (o *Oracle) Concurrent(i, j int) bool {
	return i != j && !o.Comparable(i, j)
}

// DownSet returns all events that happened before event i, ascending.
func (o *Oracle) DownSet(i int) []int {
	o.check(i)
	var out []int
	for j := 0; j < o.n; j++ {
		if o.after[j].get(i) {
			out = append(out, j)
		}
	}
	return out
}

// UpSet returns all events that happened after event i, ascending.
func (o *Oracle) UpSet(i int) []int {
	o.check(i)
	return o.after[i].members()
}

// ConcurrentPairs counts unordered pairs {i, j} with i ‖ j. A clock scheme
// must report exactly these as concurrent to be valid.
func (o *Oracle) ConcurrentPairs() int {
	total := o.n * (o.n - 1) / 2
	ordered := 0
	for i := 0; i < o.n; i++ {
		ordered += o.after[i].count()
	}
	return total - ordered
}

func fill(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// bitset is a fixed-size set of small integers.
type bitset []uint64

func newBitset(words int) bitset { return make(bitset, words) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) or(c bitset) {
	for i, w := range c {
		b[i] |= w
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b bitset) members() []int {
	var out []int
	for i, w := range b {
		for w != 0 {
			out = append(out, i*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}
