package predicate

import (
	"mixedclock/internal/cut"
	"mixedclock/internal/event"
)

// Streamer is the online form of Possibly: it consumes the live event
// stream one record at a time and evaluates predicates over the lattice of
// consistent global states reachable from the retained window. Events that
// slide out of the window are folded into a base prefix that every explored
// state treats as executed.
//
// The windowing is sound but not complete: any trace prefix is itself a
// consistent cut, so every state the windowed exploration reports really is
// a consistent global state of the full computation — a witness is a true
// witness. Witnesses that would require *not* executing an event that has
// already left the window are missed; that is the price of bounded memory,
// and the same trade every online predicate detector makes.
//
// Within a windowed evaluation, events returned by State.LastEvent /
// LastOnObject carry window-relative indices; thread and object IDs and
// executed counts are global.
//
// The window lives in one reused buffer: evicted events fold into the base
// prefix, and the window is compacted to the buffer's front in place once
// at least half the buffer is evicted, so steady-state Add allocates
// nothing.
type Streamer struct {
	window int
	buf    []event.Event // buf[lo:] is the window
	lo     int
	base   baseState
}

// NewStreamer returns a streamer retaining the last window events;
// window <= 0 retains everything, making Possibly equivalent to the offline
// call on the materialized trace.
func NewStreamer(window int) *Streamer {
	return &Streamer{window: window}
}

// evict folds evs, the oldest window events, into the base prefix.
func (s *Streamer) evict(evs []event.Event) {
	for _, e := range evs {
		t, o := int(e.Thread), int(e.Object)
		for len(s.base.executed) <= t {
			s.base.executed = append(s.base.executed, 0)
			s.base.lastThread = append(s.base.lastThread, event.Event{})
			s.base.hasThread = append(s.base.hasThread, false)
		}
		for len(s.base.hasObject) <= o {
			s.base.lastObject = append(s.base.lastObject, event.Event{})
			s.base.hasObject = append(s.base.hasObject, false)
		}
		s.base.executed[t]++
		s.base.total++
		s.base.lastThread[t], s.base.hasThread[t] = e, true
		s.base.lastObject[o], s.base.hasObject[o] = e, true
	}
	s.lo += len(evs)
}

// Add consumes the next event of the stream.
func (s *Streamer) Add(e event.Event) {
	if s.window > 0 && s.Len() == s.window {
		s.evict(s.buf[s.lo : s.lo+1])
	}
	if len(s.buf) == cap(s.buf) && 2*s.lo >= len(s.buf) && s.lo > 0 {
		s.buf = s.buf[:copy(s.buf, s.buf[s.lo:])]
		s.lo = 0
	}
	s.buf = append(s.buf, e)
}

// Barrier evicts the whole window into the base prefix. The monitor calls
// it at epoch boundaries: a Compact barrier orders everything before it
// before everything after, so states that unexecute pre-barrier events
// while executing post-barrier ones are not consistent and must not be
// explored.
func (s *Streamer) Barrier() {
	s.evict(s.buf[s.lo:])
	s.buf, s.lo = s.buf[:0], 0
}

// Len returns the number of events currently inside the window.
func (s *Streamer) Len() int { return len(s.buf) - s.lo }

// Total returns the number of events consumed so far, evicted or not.
func (s *Streamer) Total() int { return s.base.total + s.Len() }

// Possibly reports whether some consistent global state reachable from the
// retained window satisfies pred, with the same budget semantics as the
// offline Possibly. The witness cut counts whole-stream per-thread
// prefixes (base included).
func (s *Streamer) Possibly(pred Predicate, maxStates int) (cut.Cut, bool, error) {
	wt := event.NewTrace()
	for _, e := range s.buf[s.lo:] {
		wt.Append(e.Thread, e.Object, e.Op)
	}
	d := newDetector(wt)
	if s.base.total > 0 {
		base := s.base // snapshot; exploration must not alias live slices
		base.executed = append([]int(nil), s.base.executed...)
		d.base = &base
	}
	return possiblyOn(d, pred, maxStates)
}
