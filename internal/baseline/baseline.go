// Package baseline implements the classical timestamping schemes the paper
// compares against (§II and §VI): the thread-based vector clock (one
// component per thread), the object-based vector clock (one component per
// object), and the Agarwal–Garg chain clock. The Singhal–Kshemkalyani
// differential encoding, which the related-work section notes can be
// layered on any of these clocks, lives in internal/tlog: the delta log's
// per-thread DeltaWriter ships each stamp as the components that changed
// since the same thread's previous stamp.
package baseline

import (
	"fmt"

	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// ThreadClock is the classical shared-memory vector clock with one component
// per thread (§II): on event e by thread p on object q,
//
//	e.V = max(p.V, q.V); e.V[p]++
//
// and both p and q adopt e.V.
type ThreadClock struct {
	nThreads int
	threads  []vclock.Vector
	objects  []vclock.Vector
}

// NewThreadClock returns a thread-based clock for a computation with the
// given dimensions.
func NewThreadClock(nThreads, nObjects int) *ThreadClock {
	return &ThreadClock{
		nThreads: nThreads,
		threads:  make([]vclock.Vector, nThreads),
		objects:  make([]vclock.Vector, nObjects),
	}
}

// Timestamp implements clock.Timestamper.
func (c *ThreadClock) Timestamp(e event.Event) vclock.Vector {
	v := c.threads[e.Thread].Merge(c.objects[e.Object])
	v = v.Grow(c.nThreads)
	v[e.Thread]++
	c.threads[e.Thread] = v
	c.objects[e.Object] = v
	return v.Clone()
}

// Components implements clock.Timestamper.
func (c *ThreadClock) Components() int { return c.nThreads }

// Name implements clock.Timestamper.
func (c *ThreadClock) Name() string { return "thread-based" }

// ObjectClock is the object-based vector clock with one component per object
// (§II): e.V = max(p.V, q.V); e.V[q]++.
type ObjectClock struct {
	nObjects int
	threads  []vclock.Vector
	objects  []vclock.Vector
}

// NewObjectClock returns an object-based clock for a computation with the
// given dimensions.
func NewObjectClock(nThreads, nObjects int) *ObjectClock {
	return &ObjectClock{
		nObjects: nObjects,
		threads:  make([]vclock.Vector, nThreads),
		objects:  make([]vclock.Vector, nObjects),
	}
}

// Timestamp implements clock.Timestamper.
func (c *ObjectClock) Timestamp(e event.Event) vclock.Vector {
	v := c.threads[e.Thread].Merge(c.objects[e.Object])
	v = v.Grow(c.nObjects)
	v[e.Object]++
	c.threads[e.Thread] = v
	c.objects[e.Object] = v
	return v.Clone()
}

// Components implements clock.Timestamper.
func (c *ObjectClock) Components() int { return c.nObjects }

// Name implements clock.Timestamper.
func (c *ObjectClock) Name() string { return "object-based" }

// sizedTimestamper is the subset of clock.Timestamper the baselines satisfy;
// declared locally to verify interface compliance without importing the
// clock package (which would not cycle, but keeps baseline dependency-light).
type sizedTimestamper interface {
	Timestamp(e event.Event) vclock.Vector
	Components() int
	Name() string
}

var (
	_ sizedTimestamper = (*ThreadClock)(nil)
	_ sizedTimestamper = (*ObjectClock)(nil)
	_ sizedTimestamper = (*ChainClock)(nil)
)

// ChainClock implements a greedy variant of the Agarwal–Garg chain clock
// (PODC 2005, discussed in §VI): components correspond to chains of a chain
// decomposition built online. A new event e may extend a chain exactly when
// the chain's current top is dominated by e's merged vector — the top is then
// a real event that happened before e, so appending e keeps the chain totally
// ordered. This implementation tries, in order,
//
//  1. the chain of e's thread's previous event,
//  2. the chain of e's object's previous event,
//  3. every other chain, lowest index first,
//
// and opens a new chain when none qualifies. The greedy scan does not carry
// the original paper's optimality guarantee ((w+1)·w/2 chains via online
// antichain decomposition): it is a first-fit chain partition, and
// first-fit has no bound in the poset's width w — an adversarial reveal
// order can force it to open arbitrarily many chains even at width 2. It is
// still a valid vector clock, and on the evaluation workloads it stays at
// or below the number of threads (asserted in tests).
type ChainClock struct {
	threads map[event.ThreadID]vclock.Vector
	objects map[event.ObjectID]vclock.Vector
	// threadChain / objectChain remember the chain index of the entity's
	// latest event.
	threadChain map[event.ThreadID]int
	objectChain map[event.ObjectID]int
	// top[c] is the timestamp of the latest event on chain c.
	top []vclock.Vector
}

// NewChainClock returns an empty chain clock; it grows as events arrive.
func NewChainClock() *ChainClock {
	return &ChainClock{
		threads:     make(map[event.ThreadID]vclock.Vector),
		objects:     make(map[event.ObjectID]vclock.Vector),
		threadChain: make(map[event.ThreadID]int),
		objectChain: make(map[event.ObjectID]int),
	}
}

// extendable reports whether chain ch's top is dominated by (or equal to)
// merged, i.e. whether the top event happened before the incoming event.
func (c *ChainClock) extendable(ch int, merged vclock.Vector) bool {
	ord := c.top[ch].Compare(merged)
	return ord == vclock.Before || ord == vclock.Equal
}

// Timestamp implements clock.Timestamper.
func (c *ChainClock) Timestamp(e event.Event) vclock.Vector {
	merged := c.threads[e.Thread].Merge(c.objects[e.Object])

	chain := -1
	if ch, ok := c.threadChain[e.Thread]; ok && c.extendable(ch, merged) {
		chain = ch
	}
	if chain < 0 {
		if ch, ok := c.objectChain[e.Object]; ok && c.extendable(ch, merged) {
			chain = ch
		}
	}
	if chain < 0 {
		for ch := range c.top {
			if c.extendable(ch, merged) {
				chain = ch
				break
			}
		}
	}
	if chain < 0 {
		chain = len(c.top)
		c.top = append(c.top, nil)
	}

	v := merged.Tick(chain)
	c.top[chain] = v
	c.threads[e.Thread] = v
	c.objects[e.Object] = v
	c.threadChain[e.Thread] = chain
	c.objectChain[e.Object] = chain
	return v.Clone()
}

// Components implements clock.Timestamper: the number of chains opened.
func (c *ChainClock) Components() int { return len(c.top) }

// Name implements clock.Timestamper.
func (c *ChainClock) Name() string { return "chain" }

// String summarizes the clock for debugging.
func (c *ChainClock) String() string {
	return fmt.Sprintf("chainclock{chains=%d threads=%d objects=%d}",
		len(c.top), len(c.threads), len(c.objects))
}
