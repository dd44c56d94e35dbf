package cut

import (
	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/vclock"
)

// LineTracker maintains a recovery line incrementally over a live stamp
// stream: armed with one bad event's stamp, it classifies every subsequent
// event as clean or contaminated the moment it arrives and keeps the
// maximal consistent cut excluding the bad event's causal future — what
// RecoveryLine computes offline, without retaining the stream. State is
// O(threads): per-thread clean-prefix lengths and frozen flags.
//
// Events in epochs after the bad event's are causally after it (a Compact
// barrier separates epochs) and therefore always contaminated; events from
// the bad event's own epoch are contaminated iff the bad event happened
// before them: badStamp < stamp, or in O(1), when the bad event's tick is
// known (ArmTick), stamp[C] ≥ Val — the test the census and the pair
// scanner use (hb.Tick). A thread already frozen is not tested at all.
// Events streamed before arming — including every epoch before the bad
// one — must be fed through Add as well so the clean prefixes count them.
type LineTracker struct {
	bad      int
	badEpoch int
	badStamp vclock.Vector
	badTick  hb.Tick
	armed    bool
	per      []int
	seq      []int
	frozen   []bool
}

// NewLineTracker returns a tracker; call Arm when the bad event is known.
// Add may be called before Arm (events then count as clean).
func NewLineTracker() *LineTracker {
	return &LineTracker{bad: -1}
}

// Arm fixes the bad event. The stamp is cloned. Events already streamed
// are retroactively clean except the bad event itself, which callers arm
// at the moment it is consumed — the usual monitor flow.
func (lt *LineTracker) Arm(bad, epoch int, stamp vclock.Vector) {
	lt.ArmTick(bad, epoch, stamp, hb.Tick{})
}

// ArmTick is Arm for a bad event known to have made tick t, or Arm itself
// when t is zero.
func (lt *LineTracker) ArmTick(bad, epoch int, stamp vclock.Vector, t hb.Tick) {
	lt.bad = bad
	lt.badEpoch = epoch
	lt.badStamp = stamp.Clone()
	lt.badTick = t
	lt.armed = true
}

// Armed reports whether a bad event has been fixed.
func (lt *LineTracker) Armed() bool { return lt.armed }

// Bad returns the armed bad event's trace index, or -1.
func (lt *LineTracker) Bad() int { return lt.bad }

// grow extends per-thread state to cover thread t.
func (lt *LineTracker) grow(t int) {
	for len(lt.per) <= t {
		lt.per = append(lt.per, 0)
		lt.seq = append(lt.seq, 0)
		lt.frozen = append(lt.frozen, false)
	}
}

// Add consumes the next event of the stream with its epoch and (borrowed)
// stamp. Indices must arrive in trace order.
func (lt *LineTracker) Add(e event.Event, epoch int, v vclock.Vector) {
	t := int(e.Thread)
	lt.grow(t)
	if lt.armed && !lt.frozen[t] && lt.contaminated(e.Index, epoch, v) {
		// Contamination is closed under program order: freeze the
		// thread's clean prefix here.
		lt.frozen[t] = true
	}
	if !lt.frozen[t] {
		lt.per[t] = lt.seq[t] + 1
	}
	lt.seq[t]++
}

// contaminated reports whether event i, stamped v in epoch, is the armed
// bad event or in its causal future.
func (lt *LineTracker) contaminated(i, epoch int, v vclock.Vector) bool {
	switch {
	case i == lt.bad || epoch > lt.badEpoch:
		return true
	case epoch < lt.badEpoch:
		return false
	case lt.badTick.Val > 0:
		// The bad event is not this one, so reaching its tick means
		// coming after it.
		return lt.badTick.C < len(v) && v[lt.badTick.C] >= lt.badTick.Val
	}
	return lt.badStamp.Less(v)
}

// Line returns the current recovery line: the maximal consistent cut of
// the events streamed so far that excludes the bad event and its causal
// future. Before Arm it is simply everything seen.
func (lt *LineTracker) Line() Cut {
	return Cut{PerThread: append([]int(nil), lt.per...)}
}
