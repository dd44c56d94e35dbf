// Package detect implements the debugging applications the paper's
// introduction motivates: given a timestamped computation, it measures how
// much genuine concurrency exists (the census) and flags schedule-sensitive
// pairs — conflicting critical sections on the same object whose only
// ordering is the object's lock itself, so a different scheduling could flip
// their order. Those pairs are where atomicity bugs and nondeterministic
// behaviour hide in lock-based programs.
//
// Both analyses need only vector stamps (Theorem 2), never graph
// reachability, and take O(E·T) time for E events and T threads: the census
// sums thread-clock stamps, and ScheduleSensitivePairs drives the streaming
// PairScanner that the Monitor runs live.
package detect

import (
	"fmt"
	"sort"

	"mixedclock/internal/baseline"
	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// Census summarizes the pairwise ordering structure of a computation,
// computed purely from timestamps.
type Census struct {
	Events     int
	Total      int // unordered event pairs
	Ordered    int // pairs with a happened-before relation
	Concurrent int // incomparable pairs
}

// Parallelism is the fraction of pairs that are concurrent; 0 for
// computations with fewer than two events.
func (c Census) Parallelism() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Concurrent) / float64(c.Total)
}

// String renders a one-line summary.
func (c Census) String() string {
	return fmt.Sprintf("%d events, %d/%d pairs concurrent (%.1f%% parallelism)",
		c.Events, c.Concurrent, c.Total, 100*c.Parallelism())
}

// TakeCensus counts the ordered and concurrent event pairs of tr. Entry t
// of an event's thread-clock stamp counts thread t's events at or before
// it, so Sum(TC(e)) − 1 is the number of events that happened before e and
// the ordered pairs are Σₑ (Sum(TC(e)) − 1): O(E·T), where comparing every
// pair of stamps would be O(E²·T). TC is the thread clock rather than the
// mixed clock because the mixed clock can tick two components per event,
// so its sums overcount.
func TakeCensus(tr *event.Trace) Census {
	n := tr.Len()
	c := Census{Events: n, Total: n * (n - 1) / 2}
	threadStamps(tr, func(_ event.Event, v vclock.Vector) {
		c.Ordered += int(v.Sum()) - 1
	})
	c.Concurrent = c.Total - c.Ordered
	return c
}

// threadStamps feeds every event of tr, in trace order, to fn together with
// its thread-clock stamp. The stamp is fn's to keep.
func threadStamps(tr *event.Trace, fn func(event.Event, vclock.Vector)) {
	tc := baseline.NewThreadClock(tr.Threads(), tr.Objects())
	for i := 0; i < tr.Len(); i++ {
		e := tr.At(i)
		fn(e, tc.Timestamp(e))
	}
}

// Pair is a flagged pair of operations, First preceding Second in the
// object's lock order.
type Pair struct {
	First  event.Event
	Second event.Event
}

// String renders like "[T1, O2] <lock-only> [T3, O2]".
func (p Pair) String() string {
	return fmt.Sprintf("%v <lock-only> %v", p.First, p.Second)
}

// ScheduleSensitivePairs returns conflicting (at least one write), adjacent
// operations on the same object by different threads whose only
// happened-before path is the object's own lock handoff: removing the direct
// object edge would leave them concurrent. The order of such pairs is a
// scheduling accident; if the program's correctness depends on it, that is
// an atomicity bug.
//
// It runs a PairScanner over tr's thread-clock stamps and returns the pairs
// in order of their first event.
func ScheduleSensitivePairs(tr *event.Trace) []Pair {
	s := NewPairScanner()
	var out []Pair
	threadStamps(tr, func(e event.Event, v vclock.Vector) {
		if p, ok := s.Add(e, 0, v); ok {
			out = append(out, p)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].First.Index < out[j].First.Index })
	return out
}

// ConflictMatrix counts, for every pair of threads, how many
// schedule-sensitive pairs link them. Row = first thread, column = second.
// Useful to localize which threads contend.
func ConflictMatrix(tr *event.Trace) [][]int {
	n := tr.Threads()
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	for _, p := range ScheduleSensitivePairs(tr) {
		m[p.First.Thread][p.Second.Thread]++
	}
	return m
}
