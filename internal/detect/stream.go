package detect

import (
	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/vclock"
)

// This file holds the analyses as accumulators that consume one (event,
// epoch, stamp) record at a time — no materialized []Stamped, no oracle.
// track.Monitor and `mvc detect -live` feed them straight off the sealed
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
//
// A pair costs O(1), not a stamp comparison. By the §III-C rule every
// event ticks a component, and the value it ticks it to first appears
// there — so by Theorem 2 an earlier event r happened before a later v of
// its epoch exactly when v[c] ≥ r[c], for any component c that r ticked.
// The window holds each row's ticked component and value beside its stamp
// (hb.Tick). A caller that knows a record's ticks — the segment reader
// does for every derived record — passes them to AddTicks. Otherwise the
// accumulator finds them in one pass over the stamp against the running
// maximum of every component over the epoch: v ticked c exactly when v[c]
// exceeds that maximum. The maximum moves only at an event that ticks, so a
// record with known ticks updates it at those components alone, in O(1),
// and it stays exact. It is known only once the accumulator has seen its
// epoch from the start — from trace index 0, or from an epoch change with
// no gap before it — so rows added after a gap or a mid-epoch anchor with
// no known ticks fall back to a stamp comparison, as does a stamp that
// raises no component past the maximum (one no mixed clock gives), until
// the next epoch.
type CensusAccumulator struct {
	census  Census
	skipped int
	// hi is the running maximum of every component over the stamps of
	// epoch; exact reports that it covers the epoch from its start. next
	// is the trace index the next Add continues without a gap.
	hi      []uint64
	exact   bool
	started bool
	epoch   int
	next    int
}

// Add folds event i's stamp into the census: it compares the stamp with
// the window w, then pushes it there with the component it ticked, which
// it returns (the zero hb.Tick when that is not known). w must be fed only
// through this accumulator (Reset aside), so it holds the most recent
// w.Len() counted events and the rest are the pairs Skipped reports. The
// vector is borrowed.
func (a *CensusAccumulator) Add(w *hb.Recent, i, epoch int, v vclock.Vector) hb.Tick {
	return a.AddTicks(w, i, epoch, v, hb.Ticks{})
}

// AddTicks is Add for an event known to have made the ticks ts, or Add
// itself when ts is zero. The tick it returns is ts[0] then.
func (a *CensusAccumulator) AddTicks(w *hb.Recent, i, epoch int, v vclock.Vector, ts hb.Ticks) hb.Tick {
	n := w.Len()
	a.skipped += a.census.Events - n
	a.census.Total += n
	concurrent := 0
	for k := range n {
		e, t := w.RowTick(k)
		switch {
		case e != epoch:
		case t.Val > 0:
			if t.C >= len(v) || v[t.C] < t.Val {
				concurrent++
			}
		default:
			if _, s := w.Row(k); s.Concurrent(v) {
				concurrent++
			}
		}
	}
	a.census.Concurrent += concurrent
	a.census.Ordered += n - concurrent
	a.census.Events++
	t := a.tick(i, epoch, v, &ts)
	w.AddTick(i, epoch, v, t)
	return t
}

// tick advances the epoch's running maximum over v and returns v's tick.
// With known ticks ts, the maximum moves at those components only and the
// tick is ts[0]. Otherwise it is the first component v raises past the
// maximum, which v ticked, or the zero hb.Tick when the maximum is not
// known or v raises none.
func (a *CensusAccumulator) tick(i, epoch int, v vclock.Vector, ts *hb.Ticks) hb.Tick {
	switch {
	case !a.started || i != a.next: // an anchor or a gap
		a.exact = i == 0
		clear(a.hi)
	case epoch != a.epoch:
		a.exact = true
		clear(a.hi)
	}
	a.started, a.epoch, a.next = true, epoch, i+1
	var t hb.Tick
	if !a.exact {
		return ts[0]
	}
	if len(v) > len(a.hi) {
		a.hi = append(a.hi, make([]uint64, len(v)-len(a.hi))...)
	}
	if ts[0].Val > 0 {
		for _, k := range ts {
			if k.Val > 0 {
				a.hi[k.C] = k.Val
			}
		}
		return ts[0]
	}
	hi := a.hi[:len(v)]
	for c, x := range v {
		if x > hi[c] {
			if t.Val == 0 {
				t = hb.Tick{C: c, Val: x}
			}
			hi[c] = x
		}
	}
	return t
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
// event's thread next commits anywhere — what it needs of its thread
// successor: the successor's tick when the caller knows it (AddTick), so
// ts → f is f[C] ≥ Val in O(1), as for the census; otherwise a copy of the
// successor's stamp, in a buffer the record keeps. The records are dense
// slices by object and thread ID, so steady-state Add allocates nothing.
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
// thread commits again, that successor's tick, or when it is not known
// the successor's stamp, copied into succ's reused buffer.
type objRecord struct {
	e        event.Event
	has      bool // e is set
	hasSucc  bool // succTick or succ holds e's thread successor
	succTick hb.Tick
	succ     vclock.Vector
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
	return s.AddTick(e, epoch, v, hb.Tick{})
}

// AddTick is Add for an event known to have made tick t, or Add itself
// when t is zero. It keeps t, not a copy of v, should e turn out to be a
// thread successor the scanner waits for.
func (s *PairScanner) AddTick(e event.Event, epoch int, v vclock.Vector, t hb.Tick) (Pair, bool) {
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
			r.succTick = t
			if t.Val == 0 {
				r.succ = append(r.succ[:0], v...)
			}
			r.hasSucc = true
		}
	}

	var out Pair
	flagged := false
	r := &s.objs[e.Object]
	if r.has && r.e.Thread != e.Thread &&
		!(r.e.Op == event.OpRead && e.Op == event.OpRead) {
		// Lock-only iff the predecessor's thread successor is absent
		// (so far — arriving later puts it causally after e) or does not
		// precede e: the successor is not e, so it precedes e exactly
		// when e's stamp reaches the successor's tick.
		if !r.hasSucc || !r.succPrecedes(v) {
			out = Pair{First: r.e, Second: e}
			flagged = true
			s.count++
		}
	}

	r.e, r.has, r.hasSucc = e, true, false
	s.last[e.Thread] = lastOfThread{obj: e.Object, index: e.Index, has: true}
	return out, flagged
}

// succPrecedes reports whether the record's thread successor happened
// before the event stamped v, of the same epoch.
func (r *objRecord) succPrecedes(v vclock.Vector) bool {
	if t := r.succTick; t.Val > 0 {
		return t.C < len(v) && v[t.C] >= t.Val
	}
	return r.succ.Less(v)
}

// Count returns how many pairs have been flagged so far.
func (s *PairScanner) Count() int { return s.count }
