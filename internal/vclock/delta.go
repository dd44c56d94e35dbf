package vclock

// Change capture. The paper shrinks the clock to the optimal k components,
// but a flat representation still pays O(k) to copy or serialize a timestamp
// whose predecessor differs in only a handful of components. The delta API
// makes that difference a first-class value: mutating operations can report
// exactly which components they changed, and a consumer (the live tracker's
// record buffers, the delta-encoded trace log) reconstructs full vectors only
// when — and where — it actually needs them.

// Delta is one captured change: component Index now holds Value. A sequence
// of deltas is an ordered list of assignments; applying them in order to the
// predecessor vector reproduces the successor (later entries override earlier
// ones, so a join raise followed by a tick of the same component is two
// entries and still replays correctly).
//
// Along any single clock's history values are monotone, so a delta stream is
// also self-healing: replaying a suffix twice is harmless.
type Delta struct {
	// Index is the component that changed.
	Index int32
	// Value is the component's new value.
	Value uint64
}

// Apply replays a captured change sequence onto v, growing it as needed, and
// returns the (possibly reallocated) vector — the append idiom. This is the
// materialization half of the delta pipeline: predecessor.Apply(deltas) is
// the successor.
func (v Vector) Apply(ds []Delta) Vector {
	for _, d := range ds {
		v = v.Grow(int(d.Index) + 1)
		v[d.Index] = d.Value
	}
	return v
}

// TickDelta is Tick that also appends the change it made — one (index,
// value) pair — to dst. It returns the (possibly reallocated) vector and the
// extended slice; dst is caller-owned scratch that is only appended to.
func (v Vector) TickDelta(i int, dst []Delta) (Vector, []Delta) {
	v = v.Tick(i)
	return v, append(dst, Delta{Index: int32(i), Value: v[i]})
}

// JoinDelta is MergeInPlace that also appends one (index, value) pair per
// component whose value actually increased, in index order, to dst.
// Components the join left unchanged are never reported, so on causally
// local workloads the capture is much smaller than the clock width. The scan
// is still O(len(w)), but nothing is allocated beyond v's and dst's own
// growth.
func (v Vector) JoinDelta(w Vector, dst []Delta) (Vector, []Delta) {
	v = v.Grow(len(w))
	for i, x := range w {
		if x > v[i] {
			v[i] = x
			dst = append(dst, Delta{Index: int32(i), Value: x})
		}
	}
	return v, dst
}
