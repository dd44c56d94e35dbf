package hb

import (
	"fmt"

	"mixedclock/internal/vclock"
)

// Recent answers happened-before queries over a sliding window of a live
// stamp stream. Where Oracle materializes O(E²/64) reachability for a fixed
// trace, Recent keeps only the last Window (epoch, stamp) records and
// answers by the paper's Theorem 2: for events in the same epoch,
// e → f ⇔ stamp(e) < stamp(f); events in different epochs are ordered by
// the compaction barrier between the epochs.
//
// The window is one ring of rows in a reused slab, Window rows × clock
// width: Add copies the borrowed stamp into the oldest row in place, and
// the slab is re-laid only when a stamp is wider than any before it (or,
// below Window rows, when the ring fills). Steady-state Add allocates
// nothing. Rows are zero-padded to the slab's width, which Compare treats
// as the same stamp. Queries on events that have slid out of the window
// report ok=false rather than guessing.
type Recent struct {
	window int // row limit; <= 0 is unbounded
	first  int // global index of the oldest retained row
	n      int // retained rows
	head   int // slot of the oldest row
	width  int // components per slot
	slab   []uint64
	epochs []int // per slot; len(epochs) is the slot count
}

// NewRecent returns an empty window retaining the last window stamps;
// window <= 0 retains everything (offline-equivalent, unbounded memory).
func NewRecent(window int) *Recent {
	return &Recent{window: window}
}

// Add appends the stamp of global trace index i. The first Add after
// NewRecent or Reset anchors the window at i; after that indices must be
// gapless (i == Hi()). The vector is borrowed: it is copied into the ring.
func (r *Recent) Add(i, epoch int, v vclock.Vector) {
	if r.n == 0 {
		r.first, r.head = i, 0
	} else if i != r.Hi() {
		panic(fmt.Sprintf("hb: Recent.Add(%d): want index %d (indices must be gapless)", i, r.Hi()))
	}
	slots := len(r.epochs)
	if r.n == slots && (r.window <= 0 || r.n < r.window) {
		slots = max(2*slots, 16)
		if r.window > 0 {
			slots = min(slots, r.window)
		}
	}
	if slots != len(r.epochs) || len(v) > r.width {
		r.relay(slots, max(r.width, len(v)))
	}
	s := r.slot(r.n)
	if r.n == slots {
		// Full: overwrite the oldest row.
		r.head = r.slot(1)
		r.first++
	} else {
		r.n++
	}
	row := r.slab[s*r.width : (s+1)*r.width]
	clear(row[copy(row, v):])
	r.epochs[s] = epoch
}

// relay moves the retained rows into a fresh slab of slots rows × width
// components, oldest first.
func (r *Recent) relay(slots, width int) {
	slab := make([]uint64, slots*width)
	epochs := make([]int, slots)
	for k := 0; k < r.n; k++ {
		s := r.slot(k)
		copy(slab[k*width:], r.slab[s*r.width:(s+1)*r.width])
		epochs[k] = r.epochs[s]
	}
	r.slab, r.epochs, r.width, r.head = slab, epochs, width, 0
}

// slot maps the k-th oldest row to its slot.
func (r *Recent) slot(k int) int {
	s := r.head + k
	if s >= len(r.epochs) {
		s -= len(r.epochs)
	}
	return s
}

// Reset empties the window, keeping its slab; the next Add anchors it
// anew. Callers use it at a gap in the stream, after which nothing before
// the gap is answerable.
func (r *Recent) Reset() { r.n = 0 }

// Len returns the number of retained events.
func (r *Recent) Len() int { return r.n }

// Row returns the k-th oldest retained record, 0 ≤ k < Len(): its epoch
// and its stamp, zero-padded to the window's width. The vector aliases the
// ring and is valid only until the next Add.
func (r *Recent) Row(k int) (epoch int, v vclock.Vector) {
	s := r.slot(k)
	lo, hi := s*r.width, (s+1)*r.width
	return r.epochs[s], r.slab[lo:hi:hi]
}

// Lo returns the smallest retained global index; events below it have been
// evicted.
func (r *Recent) Lo() int { return r.first }

// Hi returns one past the largest retained global index.
func (r *Recent) Hi() int { return r.first + r.n }

// at fetches a retained record, reporting ok=false if evicted or not yet
// seen.
func (r *Recent) at(i int) (int, vclock.Vector, bool) {
	if i < r.first || i >= r.Hi() {
		return 0, nil, false
	}
	e, v := r.Row(i - r.first)
	return e, v, true
}

// HappenedBefore reports whether event i happened before event j, and
// whether both events are still inside the window (ok=false means the
// question cannot be answered from retained state).
func (r *Recent) HappenedBefore(i, j int) (hb, ok bool) {
	ei, vi, oki := r.at(i)
	ej, vj, okj := r.at(j)
	if !oki || !okj {
		return false, false
	}
	if ei != ej {
		// A Compact barrier separates epochs: the earlier epoch's
		// events all happened before the later epoch's.
		return ei < ej, true
	}
	return vi.Less(vj), true
}

// Concurrent reports whether events i and j are concurrent, with the same
// ok convention as HappenedBefore.
func (r *Recent) Concurrent(i, j int) (conc, ok bool) {
	if i == j {
		_, _, oki := r.at(i)
		return false, oki
	}
	ei, vi, oki := r.at(i)
	ej, vj, okj := r.at(j)
	if !oki || !okj {
		return false, false
	}
	if ei != ej {
		return false, true
	}
	return vi.Concurrent(vj), true
}
