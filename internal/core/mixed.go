package core

import (
	"fmt"

	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// MixedClock timestamps events over a fixed component set using the update
// rule of §III-C:
//
//	e.V = max(p.V, q.V)
//	if q ∈ components: e.V[q]++
//	if p ∈ components: e.V[p]++
//
// after which both thread p and object q adopt e.V. When the component set
// is a vertex cover of the computation's graph (the offline algorithm
// guarantees this), the result is a valid vector clock of optimal size
// (Theorems 2 and 3).
//
// Each thread and object keeps its clock as a flat vclock.Vector, updated in
// place: O(k) per event over the k components.
//
// MixedClock is not safe for concurrent use; package track wraps it for live
// goroutines.
type MixedClock struct {
	comps   *ComponentSet
	threads map[event.ThreadID]vclock.Vector
	objects map[event.ObjectID]vclock.Vector
	err     error
	events  int
}

// NewMixedClock returns a clock over the given components. The set may be
// grown behind the clock's back (the online tracker does exactly that);
// vectors expand on demand.
func NewMixedClock(comps *ComponentSet) *MixedClock {
	return &MixedClock{
		comps:   comps,
		threads: make(map[event.ThreadID]vclock.Vector),
		objects: make(map[event.ObjectID]vclock.Vector),
	}
}

// UpdateRule is the single implementation of the §III-C clock update,
// shared by MixedClock (offline/online timestamping) and the live tracker
// (package track). The thread's clock is the mutable master: it absorbs the
// object's clock, ticks the covered endpoints (object first, then thread),
// grows to the clock width so printed stamps align (the paper's Fig. 3
// shows fixed-width vectors; comparisons are width-agnostic either way),
// and the object's clock then re-absorbs the result — in-place joins at
// both steps. After the call *tv holds the event's timestamp and *ov equals
// it; the two never share storage.
//
// thrIdx and objIdx are the endpoints' component indices, -1 when the
// endpoint is not a component. The return value reports whether any
// endpoint was covered; false means the clock cannot order this event.
func UpdateRule(tv, ov *vclock.Vector, thrIdx, objIdx, width int) bool {
	*tv = tv.MergeInPlace(*ov)
	ticked := false
	if objIdx >= 0 {
		*tv = tv.Tick(objIdx)
		ticked = true
	}
	if thrIdx >= 0 {
		*tv = tv.Tick(thrIdx)
		ticked = true
	}
	*tv = tv.Grow(width)
	// tv dominates ov (it just joined it), so this join makes ov equal to
	// the event clock.
	*ov = ov.MergeInPlace(*tv)
	return ticked
}

// UpdateRuleDelta is UpdateRule with change capture: every component the
// event changed on the thread's clock — join raises and ticks alike — is
// appended to dst as an (index, value) assignment, so that the thread's
// previous stamp Apply'd with the capture is exactly the event's stamp. The
// caller owns dst (pass a retained scratch slice to keep the hot path
// allocation-free); the extended slice and TickCovered's tick count are
// returned.
func UpdateRuleDelta(tv, ov *vclock.Vector, thrIdx, objIdx, width int, dst []vclock.Delta) ([]vclock.Delta, int) {
	*tv, dst = tv.JoinDelta(*ov, dst)
	dst, ticks := TickCovered(tv, thrIdx, objIdx, dst)
	*tv = tv.Grow(width)
	*ov = ov.MergeInPlace(*tv)
	return dst, ticks
}

// TickCovered is the tick half of the §III-C rule with change capture: it
// ticks the covered endpoints of an event — object first, then thread, the
// order every path must agree on — appending the changes to dst. It returns
// the extended buffer and the tick count, one per covered endpoint (0–2):
// the capture's last that many entries are the ticks, and 0 means the
// clock cannot order the event. Shared by UpdateRuleDelta and the live
// tracker's re-acquisition fast path (which skips the join but must
// capture ticks identically).
func TickCovered(tv *vclock.Vector, thrIdx, objIdx int, dst []vclock.Delta) ([]vclock.Delta, int) {
	ticks := 0
	if objIdx >= 0 {
		*tv, dst = tv.TickDelta(objIdx, dst)
		ticks++
	}
	if thrIdx >= 0 {
		*tv, dst = tv.TickDelta(thrIdx, dst)
		ticks++
	}
	return dst, ticks
}

// indices returns the component indices of e's endpoints (-1 when not a
// component).
func (c *MixedClock) indices(e event.Event) (thrIdx, objIdx int) {
	thrIdx, objIdx = -1, -1
	if i, ok := c.comps.IndexOf(ThreadComponent(e.Thread)); ok {
		thrIdx = i
	}
	if i, ok := c.comps.IndexOf(ObjectComponent(e.Object)); ok {
		objIdx = i
	}
	return thrIdx, objIdx
}

// noteUncovered records the clock-misuse error for an uncovered event.
func (c *MixedClock) noteUncovered(e event.Event) {
	if c.err == nil {
		// The event's edge is not covered: this clock was built for a
		// different computation. The stamp produced here cannot order the
		// event; record the misuse for Err instead of panicking.
		c.err = fmt.Errorf("core: event %d %v not covered by components %v",
			e.Index, e, c.comps)
	}
}

// Timestamp implements clock.Timestamper via UpdateRule.
func (c *MixedClock) Timestamp(e event.Event) vclock.Vector {
	thrIdx, objIdx := c.indices(e)
	tv, ov := c.threads[e.Thread], c.objects[e.Object]
	if !UpdateRule(&tv, &ov, thrIdx, objIdx, c.comps.Len()) {
		c.noteUncovered(e)
	}
	c.threads[e.Thread], c.objects[e.Object] = tv, ov
	c.events++
	return tv.Clone()
}

// TimestampDelta is Timestamp without the O(k) materialization: instead of
// flattening the thread's clock it appends the event's change set — against
// the thread's previous stamp — to dst and returns the extended buffer plus
// the event's tick count (see TickCovered). The stamp's nominal length is
// Components(); components beyond the last assignment are zero. Mixing
// TimestampDelta and Timestamp on one clock is fine; both advance the same
// state. This is the offline half of the delta stamping pipeline: tlog's
// delta writer consumes the capture and tick count directly, so exporting a
// trace never builds full vectors except at sync points.
func (c *MixedClock) TimestampDelta(e event.Event, dst []vclock.Delta) ([]vclock.Delta, int) {
	thrIdx, objIdx := c.indices(e)
	tv, ov := c.threads[e.Thread], c.objects[e.Object]
	dst, ticks := UpdateRuleDelta(&tv, &ov, thrIdx, objIdx, c.comps.Len(), dst)
	if ticks == 0 {
		c.noteUncovered(e)
	}
	c.threads[e.Thread], c.objects[e.Object] = tv, ov
	c.events++
	return dst, ticks
}

// Components implements clock.Timestamper.
func (c *MixedClock) Components() int { return c.comps.Len() }

// ComponentSet returns the clock's component set (shared, not a copy).
func (c *MixedClock) ComponentSet() *ComponentSet { return c.comps }

// Name implements clock.Timestamper.
func (c *MixedClock) Name() string { return "mixed/offline" }

// Events returns how many events have been timestamped.
func (c *MixedClock) Events() int { return c.events }

// Err reports the first uncovered event encountered, or nil. A non-nil
// result means at least one returned timestamp is unable to order its event
// and the clock's output must not be trusted.
func (c *MixedClock) Err() error { return c.err }

// ThreadVector returns a copy of the current vector held by thread t.
func (c *MixedClock) ThreadVector(t event.ThreadID) vclock.Vector {
	return c.threads[t].Clone()
}

// ObjectVector returns a copy of the current vector held by object o.
func (c *MixedClock) ObjectVector(o event.ObjectID) vclock.Vector {
	return c.objects[o].Clone()
}
