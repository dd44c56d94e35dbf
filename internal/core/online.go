package core

import (
	"fmt"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// CoverTracker maintains an online vertex cover of the revealed computation:
// as each event arrives it records the edge and, when the edge is not yet
// covered, asks the Mechanism which endpoint joins the component set.
// Components are append-only, as §IV requires.
//
// Invariant (checked by tests): after every Reveal, every revealed edge has
// at least one endpoint in the component set, so a MixedClock over this set
// is always valid for the revealed prefix.
type CoverTracker struct {
	mech  Mechanism
	graph *bipartite.Graph
	comps *ComponentSet
}

// NewCoverTracker returns an empty tracker driven by mech.
func NewCoverTracker(mech Mechanism) *CoverTracker {
	return &CoverTracker{
		mech:  mech,
		graph: bipartite.New(0, 0),
		comps: NewComponentSet(),
	}
}

// NewSeededCoverTracker returns a tracker whose revealed graph and
// component set start from existing state instead of empty. The component
// set must cover every edge of g; future reveals fall to mech as usual.
// This is how epoch compaction re-bases a live tracker on the offline
// optimum for the history so far.
func NewSeededCoverTracker(mech Mechanism, g *bipartite.Graph, comps *ComponentSet) (*CoverTracker, error) {
	for _, e := range g.EdgeList() {
		if !comps.Covers(event.ThreadID(e.Thread), event.ObjectID(e.Object)) {
			return nil, fmt.Errorf("core: seed components %v do not cover edge (%d, %d)",
				comps, e.Thread, e.Object)
		}
	}
	return &CoverTracker{mech: mech, graph: g, comps: comps}, nil
}

// Reveal processes the next event's (thread, object) pair. It returns the
// component added to cover the new edge and true, or a zero Component and
// false when no addition was needed (edge already present, or already
// covered).
func (ct *CoverTracker) Reveal(t event.ThreadID, o event.ObjectID) (Component, bool) {
	if !ct.graph.AddEdge(int(t), int(o)) {
		return Component{}, false // repeated (thread, object) pair
	}
	if ct.comps.Covers(t, o) {
		return Component{}, false
	}
	var c Component
	switch side := ct.mech.Choose(ct.graph, int(t), int(o)); side {
	case bipartite.Threads:
		c = ThreadComponent(t)
	case bipartite.Objects:
		c = ObjectComponent(o)
	default:
		panic(fmt.Sprintf("core: mechanism %s chose invalid side %d", ct.mech.Name(), int(side)))
	}
	ct.comps.Add(c)
	return c, true
}

// Components returns the tracker's component set (shared; grows as events
// reveal new edges).
func (ct *CoverTracker) Components() *ComponentSet { return ct.comps }

// Graph returns the revealed thread–object graph (shared, read-only by
// convention).
func (ct *CoverTracker) Graph() *bipartite.Graph { return ct.graph }

// Size returns the current vector-clock size.
func (ct *CoverTracker) Size() int { return ct.comps.Len() }

// Mechanism returns the driving mechanism.
func (ct *CoverTracker) Mechanism() Mechanism { return ct.mech }

// OnlineMixedClock timestamps a computation revealed one event at a time:
// a CoverTracker grows the component set and an embedded MixedClock applies
// the §III-C update rule. Earlier timestamps stay comparable after the
// vector grows because missing components compare as zero.
type OnlineMixedClock struct {
	tracker *CoverTracker
	clock   *MixedClock
}

// NewOnlineMixedClock returns an online clock driven by mech, using the flat
// clock representation.
func NewOnlineMixedClock(mech Mechanism) *OnlineMixedClock {
	return NewOnlineMixedClockBackend(mech, vclock.BackendFlat)
}

// NewOnlineMixedClockBackend is NewOnlineMixedClock with an explicit clock
// representation. BackendAuto resolves at construction, when nothing has
// been revealed yet, so it comes out flat.
func NewOnlineMixedClockBackend(mech Mechanism, backend vclock.Backend) *OnlineMixedClock {
	backend = ResolveBackend(backend, 0, 0)
	tracker := NewCoverTracker(mech)
	return &OnlineMixedClock{
		tracker: tracker,
		clock:   NewMixedClockBackend(tracker.Components(), backend),
	}
}

// Timestamp implements clock.Timestamper.
func (c *OnlineMixedClock) Timestamp(e event.Event) vclock.Vector {
	c.tracker.Reveal(e.Thread, e.Object)
	return c.clock.Timestamp(e)
}

// Components implements clock.Timestamper.
func (c *OnlineMixedClock) Components() int { return c.tracker.Size() }

// Name implements clock.Timestamper.
func (c *OnlineMixedClock) Name() string {
	name := "mixed/online/" + c.tracker.mech.Name()
	if b := c.clock.Backend(); b != vclock.BackendFlat {
		name += "+" + b.String()
	}
	return name
}

// Backend returns the clock representation in use.
func (c *OnlineMixedClock) Backend() vclock.Backend { return c.clock.Backend() }

// Tracker exposes the underlying cover tracker.
func (c *OnlineMixedClock) Tracker() *CoverTracker { return c.tracker }

// Err reports the first uncovered event, which for an online clock would
// indicate a tracker bug; always nil in correct operation.
func (c *OnlineMixedClock) Err() error { return c.clock.Err() }

// SimulateCover replays a reveal order through a fresh tracker and returns
// the final vector-clock size. This is the fast path for the paper's Fig. 4
// and Fig. 5, which need only sizes, not timestamps.
func SimulateCover(edges []bipartite.Edge, mech Mechanism) int {
	ct := NewCoverTracker(mech)
	for _, e := range edges {
		ct.Reveal(event.ThreadID(e.Thread), event.ObjectID(e.Object))
	}
	return ct.Size()
}
