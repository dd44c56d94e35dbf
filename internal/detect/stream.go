package detect

import (
	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// This file holds the analyses as accumulators that consume one (event,
// epoch, stamp) record at a time — no materialized []Stamped, no oracle.
// track.Monitor and `mvc detect -live` feed them straight off the MVCLOG02
// delta stream, per sealed segment; ScheduleSensitivePairs feeds the
// PairScanner a recorded trace's thread-clock stamps.

// CensusAccumulator is the windowed, streaming census. Each Add compares
// the new stamp against every stamp retained in the window, so with an
// unbounded window (size 0) and a valid clock the final Census equals
// TakeCensus on the same events exactly. With a bounded window, pairs whose
// earlier endpoint has been evicted are not compared; Skipped counts them
// so the totals still account for every pair.
//
// Unlike TakeCensus, the accumulator is epoch-aware: events in different
// epochs are separated by a Compact barrier and counted as ordered, even
// though their raw clock values (which restart each epoch) are
// incomparable.
type CensusAccumulator struct {
	window  int
	census  Census
	skipped int
	epochs  []int
	ring    []vclock.Vector
}

// NewCensusAccumulator returns an accumulator retaining the last window
// stamps; window <= 0 retains everything.
func NewCensusAccumulator(window int) *CensusAccumulator {
	return &CensusAccumulator{window: window}
}

// Add folds the next event's stamp into the census. The vector is borrowed
// (StampSink convention) and cloned before retention.
func (a *CensusAccumulator) Add(epoch int, v vclock.Vector) {
	a.skipped += a.census.Events - len(a.ring)
	for i, r := range a.ring {
		a.census.Total++
		if a.epochs[i] != epoch {
			a.census.Ordered++
		} else if r.Concurrent(v) {
			a.census.Concurrent++
		} else {
			a.census.Ordered++
		}
	}
	a.census.Events++
	a.epochs = append(a.epochs, epoch)
	a.ring = append(a.ring, v.Clone())
	if a.window > 0 && len(a.ring) > a.window {
		drop := len(a.ring) - a.window
		a.epochs = a.epochs[drop:]
		a.ring = append(a.ring[:0:0], a.ring[drop:]...)
	}
}

// Census returns the counts so far. Total covers only compared pairs; add
// Skipped to recover the full pair count.
func (a *CensusAccumulator) Census() Census { return a.census }

// Skipped returns the number of event pairs that were not compared because
// the earlier event had slid out of the window.
func (a *CensusAccumulator) Skipped() int { return a.skipped }

// PairScanner finds schedule-sensitive pairs, live or over a recorded trace
// (ScheduleSensitivePairs), and unlike the census it needs no window to be
// exact: O(objects + threads) state suffices. For the object-adjacent pair
// (e, f) the rule flags f iff e's thread successor ts is absent or does not
// happen before f. Because the trace order linearizes happened-before, at
// the moment f is committed either ts has already appeared — and ts → f
// reduces to a stamp comparison (Theorem 2) — or ts has not, in which case
// ts's trace index exceeds f's and ts → f is impossible, so "no successor
// yet" and "no successor at all" flag identically. The scanner therefore
// keeps, per object, the last event and — filled in lazily when that
// event's thread next commits anywhere — its thread successor's stamp.
//
// A Compact barrier orders everything across epochs, so an epoch change
// resets the per-object records: cross-epoch adjacent pairs are never
// lock-only.
type PairScanner struct {
	epoch int
	objs  map[event.ObjectID]*objRecord
	last  map[event.ThreadID]lastOfThread
	count int
}

type objRecord struct {
	e    event.Event
	succ vclock.Vector // clone of e's thread successor's stamp, nil until seen
}

type lastOfThread struct {
	obj   event.ObjectID
	index int
}

// NewPairScanner returns an empty scanner.
func NewPairScanner() *PairScanner {
	return &PairScanner{
		objs: make(map[event.ObjectID]*objRecord),
		last: make(map[event.ThreadID]lastOfThread),
	}
}

// Add consumes the next event and reports the schedule-sensitive pair it
// completes, if any. The vector is borrowed and cloned as needed. The
// scanner emits each pair when its second event commits;
// ScheduleSensitivePairs sorts them by first event.
func (s *PairScanner) Add(e event.Event, epoch int, v vclock.Vector) (Pair, bool) {
	if epoch != s.epoch {
		s.epoch = epoch
		clear(s.objs)
		clear(s.last)
	}

	// e is the thread successor of this thread's previous event; if that
	// previous event is still some object's last event, its record has
	// been waiting for exactly this stamp.
	if p, ok := s.last[e.Thread]; ok {
		if r := s.objs[p.obj]; r != nil && r.e.Index == p.index && r.succ == nil {
			r.succ = v.Clone()
		}
	}

	var out Pair
	flagged := false
	if r := s.objs[e.Object]; r != nil && r.e.Thread != e.Thread &&
		!(r.e.Op == event.OpRead && e.Op == event.OpRead) {
		// Lock-only iff the predecessor's thread successor is absent
		// (so far — arriving later puts it causally after e) or its
		// stamp does not precede e's.
		if r.succ == nil || !r.succ.Less(v) {
			out = Pair{First: r.e, Second: e}
			flagged = true
			s.count++
		}
	}

	s.objs[e.Object] = &objRecord{e: e}
	s.last[e.Thread] = lastOfThread{obj: e.Object, index: e.Index}
	return out, flagged
}

// Count returns how many pairs have been flagged so far.
func (s *PairScanner) Count() int { return s.count }
