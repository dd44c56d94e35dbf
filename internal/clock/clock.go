// Package clock defines the interface every timestamping scheme in this
// repository implements, the engine that drives a scheme over a computation,
// and the validity checker that tests a scheme against the ground-truth
// happened-before oracle.
//
// A scheme is a valid vector clock when, for all events s and t of the
// computation, s → t ⇔ s.V < t.V (Theorem 2 of the paper). The checker
// additionally verifies that distinct events receive distinct timestamps,
// which the paper's Lemma 2 implies for every covering scheme.
package clock

import (
	"fmt"

	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/vclock"
)

// Timestamper assigns vector timestamps to the events of one computation.
// Implementations are stateful: events must be fed in trace order, exactly
// once each. Implementations are not safe for concurrent use; the live
// runtime in package track adds its own locking.
type Timestamper interface {
	// Timestamp processes the next event and returns its timestamp. The
	// returned vector must not be mutated afterwards by the implementation
	// (implementations clone as needed).
	Timestamp(e event.Event) vclock.Vector
	// Components returns the number of vector components currently in use.
	// For online schemes this grows as the computation reveals new
	// threads and objects.
	Components() int
	// Name identifies the scheme in reports, e.g. "mixed/offline".
	Name() string
}

// Run drives ts over the whole trace and returns one timestamp per event,
// indexed by event index.
func Run(tr *event.Trace, ts Timestamper) []vclock.Vector {
	out := make([]vclock.Vector, tr.Len())
	for i := 0; i < tr.Len(); i++ {
		out[i] = ts.Timestamp(tr.At(i))
	}
	return out
}

// ValidationError describes the first pair of events for which a scheme's
// timestamps disagree with the happened-before oracle.
type ValidationError struct {
	Scheme string
	I, J   int
	EventI event.Event
	EventJ event.Event
	StampI vclock.Vector
	StampJ vclock.Vector
	// Want describes the oracle relation; Got the timestamp relation.
	Want string
	Got  vclock.Ordering
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("clock %s: events %d %v and %d %v: oracle says %s but timestamps %v vs %v compare %v",
		e.Scheme, e.I, e.EventI, e.J, e.EventJ, e.Want, e.StampI, e.StampJ, e.Got)
}

// Validate checks Theorem 2 exhaustively: for every ordered pair of events,
// the timestamp comparison must coincide with the oracle's happened-before
// verdict, and no two distinct events may share a timestamp. It returns nil
// when stamps form a valid vector clock for tr, or a *ValidationError
// describing the first disagreement.
//
// Cost is O(E² · k) where k is the vector width — use on test-sized traces.
func Validate(tr *event.Trace, stamps []vclock.Vector, scheme string) error {
	if len(stamps) != tr.Len() {
		return fmt.Errorf("clock %s: %d stamps for %d events", scheme, len(stamps), tr.Len())
	}
	oracle := hb.New(tr)
	for i := 0; i < tr.Len(); i++ {
		for j := i + 1; j < tr.Len(); j++ {
			// The trace order is a linearization, so j → i is impossible;
			// the oracle relation is either i → j or i ‖ j.
			want := vclock.Concurrent
			wantName := "concurrent"
			if oracle.HappenedBefore(i, j) {
				want = vclock.Before
				wantName = "happened-before"
			}
			if got := stamps[i].Compare(stamps[j]); got != want {
				return &ValidationError{
					Scheme: scheme,
					I:      i, J: j,
					EventI: tr.At(i), EventJ: tr.At(j),
					StampI: stamps[i], StampJ: stamps[j],
					Want: wantName, Got: got,
				}
			}
		}
	}
	return nil
}

// RunAndValidate is the one-call form of Run followed by Validate.
func RunAndValidate(tr *event.Trace, ts Timestamper) ([]vclock.Vector, error) {
	stamps := Run(tr, ts)
	if err := Validate(tr, stamps, ts.Name()); err != nil {
		return stamps, err
	}
	return stamps, nil
}

// Equivalent checks that two stamp sequences for the same computation induce
// the same ordering verdict on every event pair — the contract between two
// clock schemes: their stamps may differ, happened-before may not. It returns
// nil when the sequences agree, or an error naming the first divergent pair.
//
// Cost is O(E² · k); use on test-sized traces.
func Equivalent(a, b []vclock.Vector, schemeA, schemeB string) error {
	if len(a) != len(b) {
		return fmt.Errorf("clock: %s has %d stamps, %s has %d", schemeA, len(a), schemeB, len(b))
	}
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			ra, rb := a[i].Compare(a[j]), b[i].Compare(b[j])
			if ra != rb {
				return fmt.Errorf("clock: events %d vs %d: %s orders them %v (%v, %v) but %s orders them %v (%v, %v)",
					i, j, schemeA, ra, a[i], a[j], schemeB, rb, b[i], b[j])
			}
		}
	}
	return nil
}
