package detect

import (
	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/vclock"
)

// This file holds the analyses as accumulators that consume one (event,
// epoch, stamp) record at a time — no materialized []Stamped, no oracle.
// track.Monitor and `mvc detect -live` feed them straight off the MVCLOG02
// delta stream, per sealed segment; ScheduleSensitivePairs feeds the
// PairScanner a recorded trace's thread-clock stamps.

// CensusAccumulator is the windowed, streaming census. It keeps no stamps
// of its own: each Add compares the new stamp against every stamp in the
// caller's hb.Recent window, then pushes the stamp into it.
// So with an unbounded window and a valid clock the final Census equals
// TakeCensus on the same events exactly. With a bounded window, pairs
// whose earlier endpoint has been evicted are not compared; Skipped counts
// them so the totals still account for every pair.
//
// Unlike TakeCensus, the accumulator is epoch-aware: events in different
// epochs are separated by a Compact barrier and counted as ordered, even
// though their raw clock values (which restart each epoch) are
// incomparable.
type CensusAccumulator struct {
	census  Census
	skipped int
}

// Add folds event i's stamp into the census: it compares the stamp with
// the window w, then pushes it there as w.Add(i, epoch, v) would. w must be
// fed only through this accumulator (Reset aside), so it holds the most
// recent w.Len() counted events and the rest are the pairs Skipped
// reports. The vector is borrowed.
func (a *CensusAccumulator) Add(w *hb.Recent, i, epoch int, v vclock.Vector) {
	n := w.Len()
	a.skipped += a.census.Events - n
	a.census.Total += n
	for k := 0; k < n; k++ {
		if e, r := w.Row(k); e == epoch && r.Concurrent(v) {
			a.census.Concurrent++
		} else {
			a.census.Ordered++
		}
	}
	a.census.Events++
	w.Add(i, epoch, v)
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
// The records are dense slices by object and thread ID, and each object's
// successor stamp is copied into a buffer the record keeps, so
// steady-state Add allocates nothing.
//
// A Compact barrier orders everything across epochs, so an epoch change
// resets the records' flags (keeping their buffers): cross-epoch adjacent
// pairs are never lock-only.
type PairScanner struct {
	epoch int
	objs  []objRecord    // by ObjectID
	last  []lastOfThread // by ThreadID
	count int
}

// objRecord is an object's last event in the current epoch and, once its
// thread commits again, that successor's stamp, copied into succ's reused
// buffer.
type objRecord struct {
	e       event.Event
	has     bool // e is set
	hasSucc bool // succ holds e's thread successor's stamp
	succ    vclock.Vector
}

// lastOfThread locates a thread's last event in the current epoch.
type lastOfThread struct {
	obj   event.ObjectID
	index int
	has   bool
}

// NewPairScanner returns an empty scanner.
func NewPairScanner() *PairScanner {
	return &PairScanner{}
}

// Reset forgets every per-object and per-thread record, keeping their
// buffers, as an epoch change does: the next event on each object completes
// no pair. Callers also reset at a gap in the stream.
func (s *PairScanner) Reset() {
	for i := range s.objs {
		s.objs[i].has, s.objs[i].hasSucc = false, false
	}
	for i := range s.last {
		s.last[i].has = false
	}
}

// Add consumes the next event and reports the schedule-sensitive pair it
// completes, if any. The vector is borrowed; a stamp the scanner must keep
// is copied into a reused buffer. The scanner emits each pair when its
// second event commits; ScheduleSensitivePairs sorts them by first event.
func (s *PairScanner) Add(e event.Event, epoch int, v vclock.Vector) (Pair, bool) {
	if epoch != s.epoch {
		s.epoch = epoch
		s.Reset()
	}
	for len(s.objs) <= int(e.Object) {
		s.objs = append(s.objs, objRecord{})
	}
	for len(s.last) <= int(e.Thread) {
		s.last = append(s.last, lastOfThread{})
	}

	// e is the thread successor of this thread's previous event; if that
	// previous event is still some object's last event, its record has
	// been waiting for exactly this stamp.
	if p := s.last[e.Thread]; p.has {
		if r := &s.objs[p.obj]; r.has && r.e.Index == p.index && !r.hasSucc {
			r.succ = append(r.succ[:0], v...)
			r.hasSucc = true
		}
	}

	var out Pair
	flagged := false
	r := &s.objs[e.Object]
	if r.has && r.e.Thread != e.Thread &&
		!(r.e.Op == event.OpRead && e.Op == event.OpRead) {
		// Lock-only iff the predecessor's thread successor is absent
		// (so far — arriving later puts it causally after e) or its
		// stamp does not precede e's.
		if !r.hasSucc || !r.succ.Less(v) {
			out = Pair{First: r.e, Second: e}
			flagged = true
			s.count++
		}
	}

	r.e, r.has, r.hasSucc = e, true, false
	s.last[e.Thread] = lastOfThread{obj: e.Object, index: e.Index, has: true}
	return out, flagged
}

// Count returns how many pairs have been flagged so far.
func (s *PairScanner) Count() int { return s.count }
