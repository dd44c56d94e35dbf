package mixedclock

import (
	"math/rand"

	"mixedclock/internal/cut"
	"mixedclock/internal/detect"
	"mixedclock/internal/predicate"
	"mixedclock/internal/replay"
	"mixedclock/internal/track"
)

// Application-layer helpers built on timestamps: the debugging and
// failure-recovery use-cases the paper's introduction motivates, each
// linear in the trace.

type (
	// Census summarizes the pairwise ordering structure of a computation.
	Census = detect.Census
	// SchedulePair is a conflicting pair of operations whose order is a
	// scheduling accident (only the object's lock orders them).
	SchedulePair = detect.Pair
	// Cut selects a prefix of every thread's events (a global state).
	Cut = cut.Cut
)

// TakeCensus counts ordered vs concurrent event pairs of the computation
// from vector comparisons alone, in O(events × threads).
func TakeCensus(tr *Trace) Census { return detect.TakeCensus(tr) }

// ScheduleSensitivePairs flags conflicting, adjacent operations on the same
// object by different threads whose only ordering is the object's own lock:
// a different schedule could flip them.
func ScheduleSensitivePairs(tr *Trace) []SchedulePair {
	return detect.ScheduleSensitivePairs(tr)
}

// ConflictMatrix counts schedule-sensitive pairs per (first thread, second
// thread).
func ConflictMatrix(tr *Trace) [][]int { return detect.ConflictMatrix(tr) }

// IsConsistentCut reports whether the cut is closed under happened-before:
// no included event depends on an excluded one.
func IsConsistentCut(tr *Trace, c Cut) bool { return cut.IsConsistent(tr, c) }

// RecoveryLine computes the maximal consistent cut excluding event bad and
// its causal future, deciding causality from the timestamps (Theorem 2).
func RecoveryLine(tr *Trace, stamps []Vector, bad int) (Cut, error) {
	return cut.RecoveryLine(tr, stamps, bad)
}

// Contaminated lists the events causally downstream of event bad
// (inclusive). It returns an error when bad is not an index into stamps.
func Contaminated(stamps []Vector, bad int) ([]int, error) {
	return cut.Contaminated(stamps, bad)
}

// Global predicate detection (Cooper–Marzullo modalities) over the lattice
// of consistent global states.

type (
	// GlobalState is one consistent global state presented to predicates.
	GlobalState = predicate.State
	// Predicate evaluates a property of a consistent global state.
	Predicate = predicate.Predicate
)

// ErrStateBudget is returned when lattice exploration exceeds its budget.
var ErrStateBudget = predicate.ErrBudget

// Possibly reports whether some consistent global state of the computation
// satisfies pred, with a witness cut. Exponential in threads in the worst
// case; maxStates bounds the exploration (0 = a large default).
func Possibly(tr *Trace, pred Predicate, maxStates int) (Cut, bool, error) {
	return predicate.Possibly(tr, pred, maxStates)
}

// Definitely reports whether every execution path of the computation passes
// through a state satisfying pred.
func Definitely(tr *Trace, pred Predicate, maxStates int) (bool, error) {
	return predicate.Definitely(tr, pred, maxStates)
}

// Online detection: the same analyses evaluated incrementally over a live
// tracker's stream. See Tracker.NewMonitor and the internal/track package
// documentation for the consumption model and windowing guarantees.

type (
	// Monitor is an online detector registered on a live Tracker: it
	// consumes sealed segments as they are published (barrier-free) and
	// the frozen tail on demand (Monitor.Sync), evaluating the census,
	// schedule-sensitive pairs, order watches and predicate watches
	// incrementally.
	Monitor = track.Monitor
	// MonitorPolicy bounds a monitor's state (Window, MaxCuts) and wires
	// the detection callback.
	MonitorPolicy = track.MonitorPolicy
	// Detection is one online finding, with epoch and trace-index
	// provenance into the run.
	Detection = track.Detection
	// MonitorStats is a live summary of a monitor's evaluation state,
	// including the incremental König lower bound on optimal clock width.
	MonitorStats = track.MonitorStats
	// Selector picks the events a monitor watch applies to.
	Selector = track.Selector
)

// Detection kinds reported by a Monitor.
const (
	DetectPair     = track.DetectPair
	DetectOrder    = track.DetectOrder
	DetectPossibly = track.DetectPossibly
)

// RecentDetections is how many of its most recent detections a Monitor
// keeps for Monitor.Detections; MonitorStats counts every detection by
// kind, and MonitorPolicy.OnDetection sees each one.
const RecentDetections = track.RecentDetections

// Schedule exploration: a recorded trace is one interleaving of the
// computation's partial order; these helpers produce and check others.

// IsLinearization reports whether perm is a legal interleaving of tr.
func IsLinearization(tr *Trace, perm []int) bool { return replay.IsLinearization(tr, perm) }

// RandomLinearization samples an alternative legal interleaving.
func RandomLinearization(tr *Trace, rng *rand.Rand) []int {
	return replay.RandomLinearization(tr, rng)
}

// Reorder returns the computation rescheduled along perm (which must be a
// legal linearization).
func Reorder(tr *Trace, perm []int) (*Trace, error) { return replay.Reorder(tr, perm) }

// CountLinearizations counts legal interleavings, up to limit (0 = all) —
// a direct measure of how schedule-sensitive the computation is.
func CountLinearizations(tr *Trace, limit int) int {
	return replay.CountLinearizations(tr, limit)
}
