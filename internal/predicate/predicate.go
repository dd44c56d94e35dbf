// Package predicate implements global predicate detection over a recorded
// computation — the debugging question the paper's introduction points at:
// "could the program ever have been in a bad global state?". Because a
// computation is a partial order, the observed interleaving is only one
// path through the lattice of consistent global states; a bug predicate
// that happened to be false along the observed path may still hold on
// another. Possibly explores the whole lattice; Definitely checks whether
// every execution path must pass through a matching state (Cooper–Marzullo
// modalities).
//
// Both are exponential in the number of threads in the worst case; the
// maxStates budget keeps them bounded and explicit.
package predicate

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mixedclock/internal/cut"
	"mixedclock/internal/event"
	"mixedclock/internal/hb"
)

// ErrBudget is returned when the lattice exploration exceeds maxStates.
var ErrBudget = errors.New("predicate: state budget exhausted")

// State is one consistent global state: a per-thread count of executed
// events plus derived views. Predicates must treat it as read-only.
type State struct {
	tr *event.Trace
	// executed[t] = number of events of thread t already executed.
	executed []int
	// lastOfObject[o] = index of the last executed event on object o, -1
	// if none.
	lastOfObject []int
	// eventsOfThread[t] lists event indices of thread t in program order.
	eventsOfThread [][]int
	// base, when non-nil, summarizes the part of the computation that slid
	// out of a streaming window and is treated as unconditionally executed
	// (see Streamer). Offline detection leaves it nil.
	base *baseState
}

// baseState condenses an already-executed prefix: per-thread counts plus
// the last event per thread and per object, which is all the State API can
// be asked about the evicted history.
type baseState struct {
	executed   []int
	total      int
	lastThread []event.Event
	hasThread  []bool
	lastObject []event.Event
	hasObject  []bool
}

// localExecuted returns the in-window executed count for t, tolerating
// threads that never appear in the window.
func (s *State) localExecuted(t event.ThreadID) int {
	if int(t) >= len(s.executed) {
		return 0
	}
	return s.executed[t]
}

// Executed returns how many events of thread t have run, including any
// evicted base prefix.
func (s *State) Executed(t event.ThreadID) int {
	c := s.localExecuted(t)
	if s.base != nil && int(t) < len(s.base.executed) {
		c += s.base.executed[t]
	}
	return c
}

// Total returns the total number of executed events in this state.
func (s *State) Total() int {
	n := 0
	for _, c := range s.executed {
		n += c
	}
	if s.base != nil {
		n += s.base.total
	}
	return n
}

// LastEvent returns thread t's most recently executed event, falling back
// to the evicted base prefix when the thread has not run inside the window.
// In a windowed evaluation the returned event's Index is window-relative.
func (s *State) LastEvent(t event.ThreadID) (event.Event, bool) {
	c := s.localExecuted(t)
	if c == 0 {
		if s.base != nil && int(t) < len(s.base.hasThread) && s.base.hasThread[t] {
			return s.base.lastThread[t], true
		}
		return event.Event{}, false
	}
	return s.tr.At(s.eventsOfThread[t][c-1]), true
}

// LastOnObject returns the most recently executed event on object o,
// falling back to the evicted base prefix when the object has not been
// touched inside the window.
func (s *State) LastOnObject(o event.ObjectID) (event.Event, bool) {
	if int(o) < len(s.lastOfObject) && s.lastOfObject[o] >= 0 {
		return s.tr.At(s.lastOfObject[o]), true
	}
	if s.base != nil && int(o) < len(s.base.hasObject) && s.base.hasObject[o] {
		return s.base.lastObject[o], true
	}
	return event.Event{}, false
}

// Cut returns the state as a cut (per-thread prefix lengths), counting any
// evicted base prefix.
func (s *State) Cut() cut.Cut {
	n := len(s.executed)
	if s.base != nil && len(s.base.executed) > n {
		n = len(s.base.executed)
	}
	per := make([]int, n)
	copy(per, s.executed)
	if s.base != nil {
		for t, c := range s.base.executed {
			per[t] += c
		}
	}
	return cut.Cut{PerThread: per}
}

// Predicate evaluates a property of one consistent global state.
type Predicate func(s *State) bool

// detector holds the per-trace machinery shared by Possibly and Definitely.
type detector struct {
	tr             *event.Trace
	base           *baseState // nil offline; the evicted prefix when streaming
	eventsOfThread [][]int
	adj            *hb.Adjacency
	threads        int
}

func newDetector(tr *event.Trace) *detector {
	return &detector{
		tr:             tr,
		eventsOfThread: tr.ByThread(),
		adj:            hb.NewAdjacency(tr),
		threads:        tr.Threads(),
	}
}

// enabled reports whether thread t can execute its next event in the state
// with the given executed counts: the event's object predecessor (if any)
// must already be executed.
func (d *detector) enabled(executed []int, t int) bool {
	c := executed[t]
	if c >= len(d.eventsOfThread[t]) {
		return false
	}
	idx := d.eventsOfThread[t][c]
	p := d.adj.ObjectPredecessor(idx)
	if p < 0 {
		return true
	}
	// A thread runs its events in index order, so p is executed iff its
	// thread's last executed event is p or a later one.
	pt := d.tr.At(p).Thread
	k := executed[pt]
	return k > 0 && d.eventsOfThread[pt][k-1] >= p
}

// state materializes a State for predicate evaluation.
func (d *detector) state(executed []int) *State {
	lastOfObject := make([]int, d.tr.Objects())
	for o := range lastOfObject {
		lastOfObject[o] = -1
	}
	// The last executed event on each object is the max executed index on
	// it; recompute by scanning executed prefixes (cheap relative to the
	// lattice search itself).
	for t := 0; t < d.threads; t++ {
		for _, idx := range d.eventsOfThread[t][:executed[t]] {
			e := d.tr.At(idx)
			if idx > lastOfObject[e.Object] {
				lastOfObject[e.Object] = idx
			}
		}
	}
	return &State{
		tr:             d.tr,
		executed:       append([]int(nil), executed...),
		lastOfObject:   lastOfObject,
		eventsOfThread: d.eventsOfThread,
		base:           d.base,
	}
}

// key encodes a state's executed counts as a map key, one uvarint per
// thread so no two distinct states collide.
func key(executed []int) string {
	b := make([]byte, 0, len(executed)*2)
	for _, c := range executed {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return string(b)
}

// Possibly reports whether some consistent global state of tr satisfies
// pred, returning a witness cut when found. It explores at most maxStates
// distinct states (0 means DefaultMaxStates) and returns ErrBudget when the
// lattice is larger and no witness was found within the budget.
func Possibly(tr *event.Trace, pred Predicate, maxStates int) (cut.Cut, bool, error) {
	return possiblyOn(newDetector(tr), pred, maxStates)
}

// possiblyOn runs the Possibly BFS on a prepared detector; the Streamer
// shares it with a non-nil base.
func possiblyOn(d *detector, pred Predicate, maxStates int) (cut.Cut, bool, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	start := make([]int, d.threads)
	seen := map[string]bool{key(start): true}
	queue := [][]int{start}
	truncated := false

	for head := 0; head < len(queue); head++ {
		executed := queue[head]
		st := d.state(executed)
		if pred(st) {
			return st.Cut(), true, nil
		}
		for t := 0; t < d.threads; t++ {
			if !d.enabled(executed, t) {
				continue
			}
			next := append([]int(nil), executed...)
			next[t]++
			k := key(next)
			if seen[k] {
				continue
			}
			if len(seen) >= maxStates {
				truncated = true
				continue
			}
			seen[k] = true
			queue = append(queue, next)
		}
	}
	if truncated {
		return cut.Cut{}, false, fmt.Errorf("%w: explored %d states", ErrBudget, maxStates)
	}
	return cut.Cut{}, false, nil
}

// DefaultMaxStates bounds lattice exploration when the caller passes 0.
const DefaultMaxStates = 1 << 20

// Definitely reports whether every execution path of tr passes through a
// state satisfying pred (Cooper–Marzullo's Definitely modality). It holds
// exactly when no path from the initial to the final state avoids pred
// throughout, which is checked by searching the sub-lattice of ¬pred
// states. The maxStates budget applies as in Possibly.
func Definitely(tr *event.Trace, pred Predicate, maxStates int) (bool, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	d := newDetector(tr)
	start := make([]int, d.threads)
	if pred(d.state(start)) {
		// The initial state is on every path.
		return true, nil
	}
	final := make([]int, d.threads)
	for t := range final {
		final[t] = len(d.eventsOfThread[t])
	}
	finalKey := key(final)

	seen := map[string]bool{key(start): true}
	queue := [][]int{start}
	for head := 0; head < len(queue); head++ {
		executed := queue[head]
		if key(executed) == finalKey {
			// A complete path avoided pred.
			return false, nil
		}
		for t := 0; t < d.threads; t++ {
			if !d.enabled(executed, t) {
				continue
			}
			next := append([]int(nil), executed...)
			next[t]++
			k := key(next)
			if seen[k] {
				continue
			}
			if len(seen) >= maxStates {
				return false, fmt.Errorf("%w: explored %d states", ErrBudget, maxStates)
			}
			seen[k] = true
			if pred(d.state(next)) {
				continue // path must pass pred here; do not expand further
			}
			queue = append(queue, next)
		}
	}
	// Every ¬pred-path got stuck before the final state.
	return true, nil
}
