package track

import (
	"fmt"

	"mixedclock/internal/core"
	"mixedclock/internal/vclock"
)

// Epoch compaction. Online mechanisms can only ever add components, so a
// long-lived tracker drifts above the offline optimum as the access
// structure evolves. Compact re-bases the clock: it computes the optimal
// component set for the graph revealed so far (Algorithm 1) and starts a
// new epoch whose vectors are zero over those components.
//
// Cross-epoch semantics: compaction is a synchronization barrier. Compact
// takes the world write lock, which waits out every in-flight Do (each
// holds the read side across its commit), so every event of epoch k commits
// before every event of epoch k+1; Stamped.Order reports earlier epochs as
// Before. That is SOUND — it never inverts a true happened-before relation —
// but it COARSENS concurrency: two events in different epochs always read
// as ordered even if the program imposed no dependency between them. Within
// an epoch, precision is exact as before. Call Compact at natural barriers
// (phase changes, checkpoints) where that coarsening is already true of the
// program.

// Order compares two stamped operations from the same tracker, taking
// epochs into account: within an epoch, the vector order; across epochs,
// the epoch order. Within an epoch the comparison materializes both lazy
// stamps, on every call: a tail stamp takes one tracker barrier, a sealed
// one none.
func (s Stamped) Order(t Stamped) vclock.Ordering {
	switch {
	case s.Epoch < t.Epoch:
		return vclock.Before
	case s.Epoch > t.Epoch:
		return vclock.After
	default:
		return s.vec().Compare(t.vec())
	}
}

// Compact quiesces all threads (a stop-the-world barrier), merges the
// per-thread record buffers, seals the closing epoch's tail into an
// immutable delta-encoded segment (spilled under the tracker's SpillPolicy),
// and starts a new epoch over the optimal component set for the computation
// revealed so far. It returns the new epoch number and the compacted clock
// size. Operations blocked on the barrier commit into the new epoch with
// fresh zero clocks. Like Seal, Compact first seals the SealEvery intervals
// the lifecycle worker has not sealed yet, one segment each. A seal failure
// (spill I/O) aborts the compaction with the epoch unchanged and the
// unsealed tail still in memory; a successful Compact publishes the
// catalog, re-arms auto-sealing after a spill failure, and returns once
// the segment-compaction and retention passes have run.
func (t *Tracker) Compact() (epoch, size int, err error) {
	if t.closed.Load() {
		return 0, 0, fmt.Errorf("track: Compact on a closed Tracker")
	}
	if err := t.catchUp(); err != nil {
		return 0, 0, err
	}
	epoch, size, ticket, err := t.compactEpoch()
	if err == nil {
		t.afterSeal()
		t.waitPasses(ticket)
	}
	return epoch, size, err
}

// compactEpoch is Compact's barrier section. It queues the compaction and
// retention pass of the new epoch and returns its ticket.
func (t *Tracker) compactEpoch() (epoch, size int, ticket int64, err error) {
	t.sealMu.Lock()
	defer t.sealMu.Unlock()
	t.world.Lock()
	defer t.world.Unlock()
	t.swapLocked()
	if err := t.sealLocked(t.mergedLenLocked()); err != nil {
		return 0, 0, 0, err
	}

	cover := t.cover.Load()
	analysis := core.Analyze(cover.Graph())
	if verr := analysis.Verify(); verr != nil {
		return 0, 0, 0, fmt.Errorf("track: compaction analysis: %w", verr)
	}
	seeded, err := core.NewSeededCoverTracker(cover.Mechanism(), analysis.Graph, analysis.Components)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("track: compaction: %w", err)
	}
	// Swap in the compacted cover. Lock-free readers (Size, Components
	// inside a Do callback) may still hold the old one past the barrier;
	// they only read it, and the garbage collector keeps it alive.
	t.cover.Store(core.NewSharedCover(seeded))
	// Reset every thread- and object-local clock: the new epoch starts from
	// zero over the compacted components. No Do is in flight (we hold the
	// write lock), so the per-thread and per-object state is quiescent.
	// The re-acquisition cache restarts with it; each thread's next
	// generation starts from the empty clock.
	t.reg.Lock()
	for _, th := range t.threads {
		th.clock = nil
		th.fastObj = nil
	}
	for _, o := range t.objects {
		o.clock = nil
	}
	t.reg.Unlock()
	t.epoch++
	t.epochStart = append(t.epochStart, t.mergedLenLocked())
	// The epoch and component set changed; refresh the resume manifest the
	// published catalog carries (sealLocked already captured one, but that
	// was for the closing epoch).
	t.captureResumeLocked()
	return t.epoch, seeded.Size(), t.queuePass(t.tailStart, t.epoch), nil
}

// Epoch returns the current epoch number (0 before any compaction).
func (t *Tracker) Epoch() int {
	t.world.RLock(0)
	defer t.world.RUnlock(0)
	return t.epoch
}

// EpochStarts returns, for each epoch, the index of its first event in the
// recorded trace. Epoch 0 always starts at 0; an epoch may be empty.
func (t *Tracker) EpochStarts() []int {
	t.world.RLock(0)
	defer t.world.RUnlock(0)
	return append([]int{0}, t.epochStart...)
}

// EpochOf returns the epoch that event index i was recorded in.
func (t *Tracker) EpochOf(i int) int {
	t.world.RLock(0)
	defer t.world.RUnlock(0)
	epoch := 0
	for _, start := range t.epochStart {
		if i >= start {
			epoch++
		}
	}
	return epoch
}
