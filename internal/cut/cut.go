// Package cut implements consistent global states over timestamped
// computations — the failure-recovery application from the paper's
// introduction. A cut selects a prefix of every thread's event sequence; it
// is consistent when no selected event causally depends on an unselected
// one. RecoveryLine computes the maximal consistent cut that excludes a
// faulty event, using only vector timestamps (Theorem 2 makes the causal
// test a vector comparison). LineTracker computes it over a live stamp
// stream, and RecoveryLine drives it over a recorded trace.
package cut

import (
	"fmt"

	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/vclock"
)

// Cut selects, per thread, how many of its events (in program order) are
// included.
type Cut struct {
	// PerThread[t] is the number of included events of thread t.
	PerThread []int
}

// Includes reports whether the cut includes event e, given that e is the
// seq-th event of its thread (0-based).
func (c Cut) Includes(t event.ThreadID, seq int) bool {
	if int(t) >= len(c.PerThread) {
		return false
	}
	return seq < c.PerThread[t]
}

// Size returns the total number of included events.
func (c Cut) Size() int {
	n := 0
	for _, k := range c.PerThread {
		n += k
	}
	return n
}

// String renders like "cut[T1:3 T2:1]".
func (c Cut) String() string {
	out := "cut["
	for t, k := range c.PerThread {
		if t > 0 {
			out += " "
		}
		out += fmt.Sprintf("%v:%d", event.ThreadID(t), k)
	}
	return out + "]"
}

// membership returns, for each event index, whether the cut includes it.
func (c Cut) membership(tr *event.Trace) []bool {
	in := make([]bool, tr.Len())
	seq := make([]int, tr.Threads())
	for i := 0; i < tr.Len(); i++ {
		t := tr.At(i).Thread
		if c.Includes(t, seq[t]) {
			in[i] = true
		}
		seq[t]++
	}
	return in
}

// IsConsistent reports whether the cut is closed under happened-before:
// no included event depends on an excluded one. It suffices that each
// included event's immediate predecessors are included, and a per-thread
// prefix always includes the thread predecessor, so this checks object
// predecessors only, in O(E).
func IsConsistent(tr *event.Trace, c Cut) bool {
	adj := hb.NewAdjacency(tr)
	in := c.membership(tr)
	for i, ok := range in {
		if p := adj.ObjectPredecessor(i); ok && p >= 0 && !in[p] {
			return false
		}
	}
	return true
}

// RecoveryLine computes the maximal consistent cut that excludes event bad
// (and therefore everything causally contaminated by it), deciding causal
// dependence purely from the provided timestamps: event e is excluded iff
// e == bad or stamps[bad] < stamps[e]. With a valid clock the result is
// always consistent and is the largest such cut.
//
// It drives a LineTracker, armed before the first event so that earlier
// events too are judged by that comparison.
func RecoveryLine(tr *event.Trace, stamps []vclock.Vector, bad int) (Cut, error) {
	if len(stamps) != tr.Len() {
		return Cut{}, fmt.Errorf("cut: %d stamps for %d events", len(stamps), tr.Len())
	}
	if err := checkBad(bad, len(stamps)); err != nil {
		return Cut{}, err
	}
	lt := NewLineTracker()
	lt.Arm(bad, 0, stamps[bad])
	for i, v := range stamps {
		lt.Add(tr.At(i), 0, v)
	}
	return lt.Line(), nil
}

// Contaminated lists the events excluded by the recovery line for bad: the
// faulty event and its causal future, straight from timestamp comparisons.
// It returns an error when bad is not an index into stamps.
func Contaminated(stamps []vclock.Vector, bad int) ([]int, error) {
	if err := checkBad(bad, len(stamps)); err != nil {
		return nil, err
	}
	var out []int
	for i, v := range stamps {
		if i == bad || stamps[bad].Less(v) {
			out = append(out, i)
		}
	}
	return out, nil
}

// checkBad is the range check RecoveryLine and Contaminated share.
func checkBad(bad, n int) error {
	if bad < 0 || bad >= n {
		return fmt.Errorf("cut: bad event %d out of range [0, %d)", bad, n)
	}
	return nil
}
