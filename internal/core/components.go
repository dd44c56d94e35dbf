// Package core implements the paper's contribution: the mixed vector clock,
// whose components are a mixture of threads and objects.
//
// The offline half (Analyze) computes the optimal component set for a known
// computation — a minimum vertex cover of its thread–object bipartite graph,
// found via maximum matching and the König–Egerváry theorem (Algorithm 1).
// The online half (CoverTracker and the mechanisms) grows a component set
// incrementally as events are revealed one at a time, per §IV: Naive, Random,
// Popularity and the threshold-based Hybrid the conclusion recommends.
// MixedClock then timestamps events over either component set with the
// update rule of §III-C.
package core

import (
	"fmt"
	"sort"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/event"
	"mixedclock/internal/matching"
)

// Component is one coordinate of a mixed vector clock: either a thread or an
// object.
type Component struct {
	Side bipartite.Side
	ID   int
}

// ThreadComponent returns the component for thread t.
func ThreadComponent(t event.ThreadID) Component {
	return Component{Side: bipartite.Threads, ID: int(t)}
}

// ObjectComponent returns the component for object o.
func ObjectComponent(o event.ObjectID) Component {
	return Component{Side: bipartite.Objects, ID: int(o)}
}

// String renders the component in the paper's notation ("T2" or "O3").
func (c Component) String() string {
	switch c.Side {
	case bipartite.Threads:
		return event.ThreadID(c.ID).String()
	case bipartite.Objects:
		return event.ObjectID(c.ID).String()
	default:
		return fmt.Sprintf("Component(%d,%d)", int(c.Side), c.ID)
	}
}

// ComponentSet is an ordered set of components; the position of a component
// is its index in every vector timestamp. Components can only be appended —
// exactly the online constraint of §IV ("existing components … should not be
// modified as a new event arrives").
//
// The zero value is an empty set ready for use.
type ComponentSet struct {
	// threads[id] and objects[id] are the position of that side's component
	// id, -1 when it is absent. Thread and object IDs are dense (event.go),
	// so each side is a slice indexed by ID.
	threads, objects []int32
	list             []Component
}

// NewComponentSet returns an empty component set.
func NewComponentSet() *ComponentSet { return &ComponentSet{} }

// FromCover builds the component set of a minimum vertex cover, threads
// first, then objects, each ascending — a stable, documented order.
func FromCover(c *matching.Cover) *ComponentSet {
	s := NewComponentSet()
	for _, t := range c.Threads {
		s.Add(Component{Side: bipartite.Threads, ID: t})
	}
	for _, o := range c.Objects {
		s.Add(Component{Side: bipartite.Objects, ID: o})
	}
	return s
}

// side returns the position slice of c's side, nil when c is on neither.
func (s *ComponentSet) side(c Component) *[]int32 {
	switch c.Side {
	case bipartite.Threads:
		return &s.threads
	case bipartite.Objects:
		return &s.objects
	}
	return nil
}

// Add appends c if absent and returns its index. c must be a thread or an
// object component with a non-negative ID.
func (s *ComponentSet) Add(c Component) int {
	if i, ok := s.IndexOf(c); ok {
		return i
	}
	pos := s.side(c)
	if pos == nil || c.ID < 0 {
		panic(fmt.Sprintf("core: cannot add component %v", c))
	}
	for len(*pos) <= c.ID {
		*pos = append(*pos, -1)
	}
	i := len(s.list)
	(*pos)[c.ID] = int32(i)
	s.list = append(s.list, c)
	return i
}

// IndexOf returns the index of c and whether it is present.
func (s *ComponentSet) IndexOf(c Component) (int, bool) {
	pos := s.side(c)
	if pos == nil || c.ID < 0 || c.ID >= len(*pos) || (*pos)[c.ID] < 0 {
		return 0, false
	}
	return int((*pos)[c.ID]), true
}

// Contains reports whether c is in the set.
func (s *ComponentSet) Contains(c Component) bool {
	_, ok := s.IndexOf(c)
	return ok
}

// Len returns the number of components — the size of the vector clock.
func (s *ComponentSet) Len() int { return len(s.list) }

// At returns the component at index i.
func (s *ComponentSet) At(i int) Component { return s.list[i] }

// Components returns a copy of the ordered component list.
func (s *ComponentSet) Components() []Component {
	out := make([]Component, len(s.list))
	copy(out, s.list)
	return out
}

// Covers reports whether the event (t, o) is covered: at least one of its
// endpoints is a component. Every event of a computation must be covered for
// the mixed clock to be valid (the vertex-cover property).
func (s *ComponentSet) Covers(t event.ThreadID, o event.ObjectID) bool {
	return s.Contains(ThreadComponent(t)) || s.Contains(ObjectComponent(o))
}

// String renders the set like "{T2, O2, O3}" with threads and objects in a
// normalized order (sorted by side then ID), independent of insertion order.
func (s *ComponentSet) String() string {
	sorted := s.Components()
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Side != sorted[j].Side {
			return sorted[i].Side < sorted[j].Side
		}
		return sorted[i].ID < sorted[j].ID
	})
	out := "{"
	for i, c := range sorted {
		if i > 0 {
			out += ", "
		}
		out += c.String()
	}
	return out + "}"
}
