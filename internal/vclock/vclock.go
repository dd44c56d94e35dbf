// Package vclock implements the vector-timestamp algebra shared by every
// clock scheme in this repository (thread-based, object-based, mixed, and
// chain clocks).
//
// A Vector is a growable sequence of logical-time components. Unlike the
// textbook fixed-width vector clock, comparison and merging are
// length-agnostic: a component that is absent (beyond the end of the slice)
// is treated as zero. This is what lets the online mixed clock of the paper
// add components as new threads/objects join the cover while timestamps
// issued earlier remain comparable.
//
// Vector is the only clock representation: the offline and online mixed
// clocks and the live tracker all keep their thread and object clocks as
// Vectors, updated in place through the append-idiom methods (Tick,
// MergeInPlace, and the change-capturing TickDelta and JoinDelta).
package vclock

import (
	"fmt"
	"strconv"
	"strings"
)

// Ordering is the result of comparing two vector timestamps.
type Ordering int

// The four possible outcomes of Compare. They start at 1 so that the zero
// value is invalid and cannot be mistaken for a real result.
const (
	// Equal means both vectors have identical components.
	Equal Ordering = iota + 1
	// Before means the receiver is strictly less than the argument
	// (happened-before when the clock is valid).
	Before
	// After means the receiver is strictly greater than the argument.
	After
	// Concurrent means the vectors are incomparable.
	Concurrent
)

// String returns a human-readable name for the ordering.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Vector is a vector timestamp. The zero value (nil) is a valid timestamp
// with every component equal to zero.
//
// Vectors are plain slices so callers can index them directly; use Clone
// before retaining a Vector across mutations.
type Vector []uint64

// New returns a zeroed vector with n components.
func New(n int) Vector {
	return make(Vector, n)
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// At returns component i, treating out-of-range components as zero.
func (v Vector) At(i int) uint64 {
	if i < 0 || i >= len(v) {
		return 0
	}
	return v[i]
}

// Set assigns component i, growing the vector with zeros if needed.
// It returns the (possibly reallocated) vector, following the append idiom.
func (v Vector) Set(i int, val uint64) Vector {
	v = v.Grow(i + 1)
	v[i] = val
	return v
}

// Tick increments component i by one, growing the vector if needed, and
// returns the (possibly reallocated) vector.
func (v Vector) Tick(i int) Vector {
	v = v.Grow(i + 1)
	v[i]++
	return v
}

// Grow extends v with zero components until it has at least n components.
func (v Vector) Grow(n int) Vector {
	if n <= len(v) {
		return v
	}
	if n <= cap(v) {
		return v[:n]
	}
	g := make(Vector, n)
	copy(g, v)
	return g
}

// Merge returns the componentwise maximum of v and w. The result has
// max(len(v), len(w)) components and shares no storage with either input.
func (v Vector) Merge(w Vector) Vector {
	n := len(v)
	if len(w) > n {
		n = len(w)
	}
	out := make(Vector, n)
	for i := range out {
		a, b := v.At(i), w.At(i)
		if a >= b {
			out[i] = a
		} else {
			out[i] = b
		}
	}
	return out
}

// MergeInPlace sets v to the componentwise maximum of v and w, growing v if
// needed, and returns the (possibly reallocated) vector. It avoids the
// allocation of Merge when v may be reused.
func (v Vector) MergeInPlace(w Vector) Vector {
	v = v.Grow(len(w))
	for i, b := range w {
		if b > v[i] {
			v[i] = b
		}
	}
	return v
}

// Compare returns the ordering of v relative to w. Missing components are
// treated as zero, so [2,1] and [2,1,0,0] are Equal, and [2,1] is Before
// [2,1,4].
//
// This is the inner loop of every stamp comparison (the census, the pair
// scanner, happened-before queries), so it compares the common prefix
// without per-component bounds checks and then scans whichever tail is
// longer for a nonzero entry.
func (v Vector) Compare(w Vector) Ordering {
	n := min(len(v), len(w))
	a, b := v[:n], w[:n]
	var less, greater bool
	for i, x := range a {
		if y := b[i]; x < y {
			if greater {
				return Concurrent
			}
			less = true
		} else if x > y {
			if less {
				return Concurrent
			}
			greater = true
		}
	}
	// Beyond the common prefix the shorter side is implicitly zero, so a
	// nonzero entry in the longer side's tail orders that side higher.
	less = less || nonzero(w[n:])
	greater = greater || nonzero(v[n:])
	switch {
	case less && greater:
		return Concurrent
	case less:
		return Before
	case greater:
		return After
	default:
		return Equal
	}
}

// nonzero reports whether any component of v is nonzero.
func nonzero(v Vector) bool {
	for _, x := range v {
		if x != 0 {
			return true
		}
	}
	return false
}

// Less reports whether v < w: every component of v is ≤ the corresponding
// component of w and at least one is strictly smaller. For a valid clock this
// is exactly happened-before (Theorem 2 of the paper).
func (v Vector) Less(w Vector) bool {
	return v.Compare(w) == Before
}

// Concurrent reports whether v and w are incomparable.
func (v Vector) Concurrent(w Vector) bool {
	return v.Compare(w) == Concurrent
}

// Equal reports whether v and w are componentwise equal (missing components
// count as zero).
func (v Vector) Equal(w Vector) bool {
	return v.Compare(w) == Equal
}

// Sum returns the sum of all components. Useful as a cheap progress measure:
// each event increments at least one component, so Sum is monotone along any
// causal chain.
func (v Vector) Sum() uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}

// String renders the vector as "[a b c]".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatUint(x, 10))
	}
	b.WriteByte(']')
	return b.String()
}
