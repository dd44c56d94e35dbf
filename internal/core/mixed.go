package core

import (
	"fmt"

	"mixedclock/internal/event"
	"mixedclock/internal/treeclock"
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
// The per-thread and per-object clock state is held behind vclock.Clock, so
// the representation is pluggable: the flat reference backend pays O(k) per
// event, while the tree backend (internal/treeclock) pays only for the
// components each join actually changes. Both produce identical timestamps.
//
// MixedClock is not safe for concurrent use; package track wraps it for live
// goroutines.
type MixedClock struct {
	comps   *ComponentSet
	backend vclock.Backend
	threads map[event.ThreadID]vclock.Clock
	objects map[event.ObjectID]vclock.Clock
	err     error
	events  int
}

// NewMixedClock returns a clock over the given components, using the flat
// backend. The set may be grown behind the clock's back (the online tracker
// does exactly that); vectors expand on demand.
func NewMixedClock(comps *ComponentSet) *MixedClock {
	return NewMixedClockBackend(comps, vclock.BackendFlat)
}

// NewMixedClockBackend is NewMixedClock with an explicit clock
// representation. BackendAuto is resolved here from the component-set width
// (Analysis.NewClockBackend resolves it with the join shape too, which it
// can read off the graph).
func NewMixedClockBackend(comps *ComponentSet, backend vclock.Backend) *MixedClock {
	backend = ResolveBackend(backend, comps.Len(), 0)
	return &MixedClock{
		comps:   comps,
		backend: backend,
		threads: make(map[event.ThreadID]vclock.Clock),
		objects: make(map[event.ObjectID]vclock.Clock),
	}
}

// NewBackendClock returns an empty clock in the configured representation.
// BackendAuto must be resolved (ResolveBackend) before clocks are built;
// unresolved it falls back to the flat reference.
func NewBackendClock(b vclock.Backend) vclock.Clock {
	if b == vclock.BackendTree {
		return treeclock.New(0)
	}
	return vclock.NewFlat(0)
}

// UpdateRule is the single implementation of the §III-C clock update,
// shared by MixedClock (offline/online timestamping) and the live tracker
// (package track). The thread's clock is the mutable master: it absorbs the
// object's clock, ticks the covered endpoints (object first, then thread),
// grows to the clock width so printed stamps align (the paper's Fig. 3
// shows fixed-width vectors; comparisons are width-agnostic either way),
// and the object's clock then re-absorbs the result — in-place joins at
// both steps, which is where the tree backend's subtree pruning pays off.
// After the call tv holds the event's timestamp and ov equals it.
//
// thrIdx and objIdx are the endpoints' component indices, -1 when the
// endpoint is not a component. The return value reports whether any
// endpoint was covered; false means the clock cannot order this event.
func UpdateRule(tv, ov vclock.Clock, thrIdx, objIdx, width int) bool {
	tv.Join(ov)
	ticked := false
	if objIdx >= 0 {
		tv.Tick(objIdx)
		ticked = true
	}
	if thrIdx >= 0 {
		tv.Tick(thrIdx)
		ticked = true
	}
	tv.Grow(width)
	// tv dominates ov (it just joined it), so this join makes ov equal to
	// the event clock; for the tree backend it copies only what changed.
	ov.Join(tv)
	return ticked
}

// UpdateRuleDelta is UpdateRule with change capture: every component the
// event changed on the thread's clock — join raises and ticks alike — is
// appended to dst as an (index, value) assignment, so that the thread's
// previous stamp Apply'd with the capture is exactly the event's stamp. The
// caller owns dst (pass a retained scratch slice to keep the hot path
// allocation-free); the extended slice and TickCovered's tick count are
// returned.
func UpdateRuleDelta(tv, ov vclock.Clock, thrIdx, objIdx, width int, dst []vclock.Delta) ([]vclock.Delta, int) {
	dst = tv.JoinDelta(ov, dst)
	dst, ticks := TickCovered(tv, thrIdx, objIdx, dst)
	tv.Grow(width)
	ov.Join(tv)
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
func TickCovered(tv vclock.Clock, thrIdx, objIdx int, dst []vclock.Delta) ([]vclock.Delta, int) {
	ticks := 0
	if objIdx >= 0 {
		dst = tv.TickDelta(objIdx, dst)
		ticks++
	}
	if thrIdx >= 0 {
		dst = tv.TickDelta(thrIdx, dst)
		ticks++
	}
	return dst, ticks
}

// clocksFor resolves the per-thread and per-object clock state and the
// component indices of e's endpoints (-1 when not a component).
func (c *MixedClock) clocksFor(e event.Event) (tv, ov vclock.Clock, thrIdx, objIdx int) {
	tv = c.threads[e.Thread]
	if tv == nil {
		tv = NewBackendClock(c.backend)
		c.threads[e.Thread] = tv
	}
	ov = c.objects[e.Object]
	if ov == nil {
		ov = NewBackendClock(c.backend)
		c.objects[e.Object] = ov
	}
	thrIdx, objIdx = -1, -1
	if i, ok := c.comps.IndexOf(ThreadComponent(e.Thread)); ok {
		thrIdx = i
	}
	if i, ok := c.comps.IndexOf(ObjectComponent(e.Object)); ok {
		objIdx = i
	}
	return tv, ov, thrIdx, objIdx
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
	tv, ov, thrIdx, objIdx := c.clocksFor(e)
	if !UpdateRule(tv, ov, thrIdx, objIdx, c.comps.Len()) {
		c.noteUncovered(e)
	}
	c.events++
	return tv.Flatten()
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
	tv, ov, thrIdx, objIdx := c.clocksFor(e)
	dst, ticks := UpdateRuleDelta(tv, ov, thrIdx, objIdx, c.comps.Len(), dst)
	if ticks == 0 {
		c.noteUncovered(e)
	}
	c.events++
	return dst, ticks
}

// Components implements clock.Timestamper.
func (c *MixedClock) Components() int { return c.comps.Len() }

// ComponentSet returns the clock's component set (shared, not a copy).
func (c *MixedClock) ComponentSet() *ComponentSet { return c.comps }

// Backend returns the clock representation in use.
func (c *MixedClock) Backend() vclock.Backend { return c.backend }

// Name implements clock.Timestamper.
func (c *MixedClock) Name() string {
	if c.backend == vclock.BackendFlat {
		return "mixed/offline"
	}
	return "mixed/offline+" + c.backend.String()
}

// Events returns how many events have been timestamped.
func (c *MixedClock) Events() int { return c.events }

// Err reports the first uncovered event encountered, or nil. A non-nil
// result means at least one returned timestamp is unable to order its event
// and the clock's output must not be trusted.
func (c *MixedClock) Err() error { return c.err }

// ThreadVector returns a copy of the current vector held by thread t.
func (c *MixedClock) ThreadVector(t event.ThreadID) vclock.Vector {
	if v := c.threads[t]; v != nil {
		return v.Flatten()
	}
	return nil
}

// ObjectVector returns a copy of the current vector held by object o.
func (c *MixedClock) ObjectVector(o event.ObjectID) vclock.Vector {
	if v := c.objects[o]; v != nil {
		return v.Flatten()
	}
	return nil
}
