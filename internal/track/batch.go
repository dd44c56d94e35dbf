// Batched commits: the amortized fast path for high-rate producers.
//
// A plain Do pays, per event: one object-stripe acquisition, one world
// read-lock shard hold, one cover-generation load, and one atomic
// trace-index fetch. The clock work itself is O(changed components) and
// allocation-free, so at high event rates those four synchronization
// round-trips ARE the commit cost. DoBatch pays each of them once for a
// whole run of operations on one object; the Batch builder extends that to
// mixed-object runs by splitting them into maximal same-object (same
// stripe) runs, preserving program order exactly.
//
// The linearization rule. Trace-index order must remain a linearization of
// happened-before (index order refines both program order and per-object
// order — world.go). A batch preserves this by claiming its whole index
// range [base, base+n) with a single seq.Add(n) while it already holds the
// object's commit exclusion and a world read-lock shard:
//
//   - Program order: indices within the batch are assigned in op order, and
//     the thread's next commit fetches a later index (seq is monotonic).
//   - Object order: any other thread's commit on the same object either
//     released the stripe before this batch took it (its indices were
//     claimed earlier, so they are all below base) or waits for the stripe
//     (its indices are all at or above base+n). The batch's indices are
//     contiguous and totally ordered by the one stripe hold.
//   - Causality out of the batch can only flow through the object's stripe
//     after the batch releases it, by which time every batch index is
//     claimed and below the observer's.
//   - Epochs: the whole batch commits under one world read-lock hold, so a
//     concurrent Compact (which takes the write side) lands entirely
//     before or entirely after it — every operation of a batch belongs to
//     one epoch.
//
// The cover is observed once per batch. Its answer can only be one reveal
// behind a racing discovery on another thread — the same staleness any
// single Do tolerates — and the batch's own edge is revealed by that one
// call, so the cover invariant (at least one covered endpoint) holds for
// every operation in the batch.
package track

import (
	"fmt"
	"slices"

	"mixedclock/internal/event"
)

// DoBatch commits ops as len(ops) consecutive operations by th on o,
// paying the per-commit synchronization — object stripe, world read-lock
// shard, cover fetch, trace-index fetch — once for the whole batch instead
// of once per event. The returned stamps correspond to ops in order and are
// identical (events, epoch, timestamps) to what the equivalent loop of Do
// calls would have produced; the operations occupy a contiguous range of
// the trace, totally ordered by the single stripe hold (see the package
// comment's linearization rule). All operations of a batch belong to one
// epoch.
//
// Unlike Do, DoBatch runs no user function and holds the object exclusively
// even for reads: a batch is pure commit work, so there is no callback to
// overlap and the exclusive hold is briefer than n shared acquisitions.
// A nil or empty ops returns nil without committing anything.
func (th *Thread) DoBatch(o *Object, ops []event.Op) []Stamped {
	if len(ops) == 0 {
		return nil
	}
	out := make([]Stamped, len(ops))
	th.doBatch(o, ops, out)
	if th.t.sealArmed.Load() {
		th.t.signalLifecycle()
	}
	return out
}

// doBatch is the lock-holding core of DoBatch: one stripe hold, one world
// read-lock hold, one cover observation and one index-range claim cover
// every op. out must have len(ops) entries.
func (th *Thread) doBatch(o *Object, ops []event.Op, out []Stamped) {
	t := th.t
	if t != o.t {
		panic(fmt.Sprintf("track: thread %q and object %q belong to different trackers", th.name, o.name))
	}
	if t.closed.Load() {
		panic(fmt.Sprintf("track: thread %q: DoBatch on a closed Tracker", th.name))
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	t.world.RLock(th.shard)
	defer t.world.RUnlock(th.shard)
	thrIdx, objIdx, width := t.cover.Load().Observe(th.id, o.id)
	base := int(t.seq.Add(int64(len(ops)))) - len(ops)
	for i, op := range ops {
		out[i] = t.commitOne(th, o, op, base+i, thrIdx, objIdx, width)
	}
}

// Batch accumulates operations by one thread across any objects and commits
// them in one call. Commit splits the accumulated run into maximal
// consecutive same-object (same stripe) sub-runs and commits each through
// the batched path, so program order — the order of the Add calls — is
// preserved exactly while the per-commit synchronization is paid once per
// sub-run instead of once per operation. Like its Thread, a Batch must be
// used by one goroutine at a time; it is reusable after Commit.
type Batch struct {
	th   *Thread
	objs []*Object
	ops  []event.Op
	// out is the stamps buffer Commit returns, reused commit after commit.
	out []Stamped
}

// NewBatch returns an empty batch for the thread.
func (th *Thread) NewBatch() *Batch { return &Batch{th: th} }

// Add appends one operation on o to the batch and returns the batch for
// chaining. Nothing commits until Commit.
func (b *Batch) Add(o *Object, op event.Op) *Batch {
	b.objs = append(b.objs, o)
	b.ops = append(b.ops, op)
	return b
}

// Write is shorthand for Add(o, event.OpWrite).
func (b *Batch) Write(o *Object) *Batch { return b.Add(o, event.OpWrite) }

// Read is shorthand for Add(o, event.OpRead).
func (b *Batch) Read(o *Object) *Batch { return b.Add(o, event.OpRead) }

// Len reports how many operations are accumulated and not yet committed.
func (b *Batch) Len() int { return len(b.ops) }

// Commit commits every accumulated operation, in Add order, and resets the
// batch for reuse. The returned stamps correspond to the Add calls in
// order. Consecutive operations on the same object share one stripe hold
// and one trace-index fetch; operations of one sub-run are contiguous in
// the trace, and sub-runs commit in program order (later sub-runs get
// higher indices). An empty batch returns nil.
//
// The returned slice is the batch's own buffer, valid until its next
// Commit, so a steady stream of commits allocates nothing; copy the
// stamps (or append them elsewhere) to keep them longer.
func (b *Batch) Commit() []Stamped {
	if len(b.ops) == 0 {
		return nil
	}
	out := slices.Grow(b.out[:0], len(b.ops))[:len(b.ops)]
	b.out = out
	for i := 0; i < len(b.ops); {
		j := i + 1
		for j < len(b.ops) && b.objs[j] == b.objs[i] {
			j++
		}
		b.th.doBatch(b.objs[i], b.ops[i:j], out[i:j])
		i = j
	}
	b.objs = b.objs[:0]
	b.ops = b.ops[:0]
	if b.th.t.sealArmed.Load() {
		b.th.t.signalLifecycle()
	}
	return out
}
