package track

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Sharded stop-the-world barrier. Every Do holds the read side of the world
// lock across its commit, so with a single RWMutex every commit on every
// core performs a read-modify-write on the same reader-count word — at high
// goroutine counts that one cache line, not the clock work, dominates the
// hot path. worldLock splits the reader count across cache-line-padded
// shards: each Thread is pinned to one shard (dense thread IDs round-robin
// across them) and its commits touch only that shard's line, while the
// write side — snapshots, Seal, Compact — acquires every shard in order,
// which still quiesces all in-flight commits exactly as before.
//
// The same cannot be done to the trace-index counter itself. A commit needs
// its dense index while it holds the object commit exclusion (that is what
// makes index order refine program order and object order, i.e. makes the
// merged trace a linearization of happened-before), and handing out the
// next integer of a single dense sequence to whichever commit comes anywhere
// next is a consensus — any split of the counter either breaks density or
// breaks the order-refinement invariant (per-thread blocks invert object
// order; per-object counters collide). What CAN be fixed is everything
// around the counter: it lives in a paddedInt64 so the unavoidable RMW at
// least owns its cache line instead of false-sharing with the read-mostly
// cover pointer every commit also touches.

// cacheLineSize is the padding stride. 128 covers the common 64-byte line
// and the 128-byte spatial prefetcher pairs on recent x86 parts.
const cacheLineSize = 128

// paddedRWMutex is an RWMutex alone on its cache line(s).
type paddedRWMutex struct {
	sync.RWMutex
	_ [cacheLineSize - unsafe.Sizeof(sync.RWMutex{})%cacheLineSize]byte
}

// paddedInt64 is an atomic counter alone on its cache line(s): the leading
// pad keeps it clear of whatever precedes it in the enclosing struct, the
// trailing pad keeps whatever follows off its line.
type paddedInt64 struct {
	_ [cacheLineSize]byte
	v atomic.Int64
	_ [cacheLineSize - unsafe.Sizeof(atomic.Int64{})%cacheLineSize]byte
}

func (p *paddedInt64) Add(d int64) int64 { return p.v.Add(d) }
func (p *paddedInt64) Load() int64       { return p.v.Load() }
func (p *paddedInt64) Store(x int64)     { p.v.Store(x) }

// worldLock is the sharded barrier.
type worldLock struct {
	shards []paddedRWMutex
}

// newWorldLock sizes the shard set to the core count (one contended line
// per core is the point; beyond that, shards only cost the write side) with
// a small cap so Lock stays cheap on huge machines.
func newWorldLock() *worldLock {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 32 {
		n = 32
	}
	return &worldLock{shards: make([]paddedRWMutex, n)}
}

// shardFor pins a dense thread ID to a shard.
func (w *worldLock) shardFor(id int) int { return id % len(w.shards) }

// RLock locks shard s for reading — the per-commit side.
func (w *worldLock) RLock(s int) { w.shards[s].RLock() }

// RUnlock releases shard s.
func (w *worldLock) RUnlock(s int) { w.shards[s].RUnlock() }

// Lock acquires every shard in order: when it returns, no commit is in
// flight and none can start until Unlock. Readers on not-yet-acquired
// shards keep committing while earlier shards are being taken; each such
// commit completes entirely before Lock returns, so the barrier semantics
// match a single RWMutex's write lock.
func (w *worldLock) Lock() {
	for i := range w.shards {
		w.shards[i].Lock()
	}
}

// Unlock releases every shard in reverse order.
func (w *worldLock) Unlock() {
	for i := len(w.shards) - 1; i >= 0; i-- {
		w.shards[i].Unlock()
	}
}
