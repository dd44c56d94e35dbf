package core

import (
	"sync"
	"sync/atomic"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/event"
)

// SharedCover makes a CoverTracker safe for concurrent revealers. It is the
// component-discovery path of the live tracker (package track): many
// goroutines observe (thread, object) pairs at once, but after a short
// warm-up almost every pair has been seen before, so the common case must
// not take any lock at all.
//
// Observe is the single entry point for the hot path. It answers everything
// the §III-C update rule needs for an event: which of the two endpoints are
// clock components (their indices) and the current clock width. The steady
// state is served from a generation — the component-index tables plus a
// revealed-edge bitmap — behind one atomic pointer: one pointer load, one
// bitmap word load, two slice reads, no read-modify-write on any shared
// cache line.
//
// A genuinely new edge takes the mutex and runs the mechanism. Like the
// paper's online mechanisms (§IV) it then pays only for what changed: an
// edge the current components already cover, with endpoints inside the
// generation's tables, sets its bit in the current generation in O(1).
// Only a reveal that adds a component or grows the endpoint range builds
// and publishes the next generation. Components are append-only, so a
// reader still on a previous generation is merely one reveal behind — the
// same answer it would have gotten a moment earlier. The invariant readers
// rely on: a bit is only ever set in a generation whose tables already
// cover its edge.
//
// Superseded generations are plain immutable memory; the garbage collector
// keeps one alive for as long as a reader holds it.
type SharedCover struct {
	// gen is the current generation; never nil after NewSharedCover.
	gen atomic.Pointer[coverGen]
	// mu serializes revealers and the read-only accessors that walk the
	// underlying CoverTracker directly (Graph, Mechanism, Components).
	mu sync.Mutex
	ct *CoverTracker
}

// coverGen is one generation of the discovery state: per endpoint ID, the
// component index (-1 when the endpoint is not a component), the clock
// width, and the revealed-edge bitmap, row-major by thread. The object
// table spans whole bitmap words, so a row is len(objIdx)/64 words. The
// tables and width never change after publication; bits are only ever
// set, and only under SharedCover.mu.
type coverGen struct {
	thrIdx   []int
	objIdx   []int
	width    int
	revealed []atomic.Uint64
}

// bit returns the bitmap word holding edge (t, o) and the edge's mask in
// it, or nil when the edge lies outside the generation's tables.
func (g *coverGen) bit(t event.ThreadID, o event.ObjectID) (*atomic.Uint64, uint64) {
	if int(t) >= len(g.thrIdx) || int(o) >= len(g.objIdx) {
		return nil, 0
	}
	return &g.revealed[int(t)*(len(g.objIdx)>>6)+int(o)>>6], 1 << (uint(o) & 63)
}

// NewSharedCover wraps ct for concurrent use. The SharedCover owns ct
// afterwards; callers must not keep revealing through ct directly.
func NewSharedCover(ct *CoverTracker) *SharedCover {
	s := &SharedCover{ct: ct}
	s.gen.Store(s.rebuildLocked())
	return s
}

// Observe reveals the edge (t, o) if it is new and returns the tick plan for
// the event: the component indices of thread t and object o (-1 when the
// endpoint is not a component) and the current clock width. The cover
// invariant guarantees at least one index is non-negative for any edge the
// mechanism has processed. The revealed-edge steady state is lock-free.
func (s *SharedCover) Observe(t event.ThreadID, o event.ObjectID) (thrIdx, objIdx, width int) {
	g := s.gen.Load()
	if w, m := g.bit(t, o); w != nil && w.Load()&m != 0 {
		return g.thrIdx[t], g.objIdx[o], g.width
	}
	return s.reveal(t, o)
}

// reveal is Observe's slow path: run the mechanism on the new edge, then
// either mark it in the current generation (no component added, endpoints
// in range) or publish the next one. Duplicate reveals (two goroutines
// racing the same new edge) are harmless — Reveal coalesces them.
func (s *SharedCover) reveal(t event.ThreadID, o event.ObjectID) (thrIdx, objIdx, width int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gen.Load()
	_, added := s.ct.Reveal(t, o)
	if w, m := g.bit(t, o); w != nil && !added {
		w.Or(m)
	} else {
		g = s.rebuildLocked()
		s.gen.Store(g)
	}
	return g.thrIdx[t], g.objIdx[o], g.width
}

// rebuildLocked builds the next generation from the CoverTracker. The
// caller holds s.mu (or is the constructor). A rebuild is
// O(threads·objects/64 + edges + width) and happens only when a reveal adds
// a component or grows the endpoint range — at most width + range-growth
// times per epoch, not per edge. Rounding the object table up to the
// bitmap's word boundary costs nothing and absorbs small range growth.
func (s *SharedCover) rebuildLocked() *coverGen {
	gr, comps := s.ct.graph, s.ct.comps
	rowWords := (gr.NObjects() + 63) / 64
	g := &coverGen{
		thrIdx:   make([]int, gr.NThreads()),
		objIdx:   make([]int, rowWords*64),
		width:    comps.Len(),
		revealed: make([]atomic.Uint64, gr.NThreads()*rowWords),
	}
	for i := range g.thrIdx {
		g.thrIdx[i] = -1
	}
	for i := range g.objIdx {
		g.objIdx[i] = -1
	}
	for i := 0; i < comps.Len(); i++ {
		c := comps.At(i)
		switch {
		case c.Side == bipartite.Threads && c.ID < len(g.thrIdx):
			g.thrIdx[c.ID] = i
		case c.Side == bipartite.Objects && c.ID < len(g.objIdx):
			g.objIdx[c.ID] = i
		}
	}
	for t := range g.thrIdx {
		row := g.revealed[t*rowWords : (t+1)*rowWords]
		for _, o := range gr.ThreadNeighbors(t) {
			row[o>>6].Or(1 << (uint(o) & 63))
		}
	}
	return g
}

// Size returns the current vector-clock size. Lock-free.
func (s *SharedCover) Size() int { return s.gen.Load().width }

// Components returns a copy of the current component set.
func (s *SharedCover) Components() []Component {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ct.Components().Components()
}

// ComponentsString renders the component set (for error messages).
func (s *SharedCover) ComponentsString() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ct.Components().String()
}

// Graph returns the revealed thread–object graph. The graph is shared, not
// copied: callers must quiesce all revealers first (the live tracker calls
// this only under its compaction barrier).
func (s *SharedCover) Graph() *bipartite.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ct.Graph()
}

// Mechanism returns the driving mechanism.
func (s *SharedCover) Mechanism() Mechanism {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ct.Mechanism()
}
