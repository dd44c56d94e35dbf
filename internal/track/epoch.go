// Epoch-based reclamation: the deferred-release machinery that lets the
// segment lifecycle retire shared state without stopping the world.
//
// The problem it solves: compaction and retention replace parts of the
// sealed-history snapshot (the segment list, spill files on disk, consumed
// tail blocks) while streams, monitors and lazy stamps replay it with no
// lock held. The old design made every replacement a stop-the-world swap —
// correct, but it put rare maintenance work on the critical path of every
// commit. The EBR design publishes replacements atomically (see segState)
// and hands the *old* value to the reclaimer, which frees it only once no
// reader can still hold it.
//
// The protocol is the classic one (blink-hash-style per-reader epochs):
//
//   - A global epoch counter only ever advances; every retirement advances
//     it and records the pre-advance value as the entry's epoch.
//   - Every reader that may hold a reclaimable reference — a sealed-history
//     replay — owns a cache-line-padded record and pins it to the current
//     global epoch before loading any shared pointer, unpinning when done
//     (0 = quiescent). Go's sequentially consistent atomics give the
//     ordering this needs: if a reader's load observed the old value, its
//     pin (p) happened before the retirement's epoch fetch (e), so p <= e
//     and the entry stays in limbo.
//   - A limbo entry of epoch e is freed once every record is either
//     quiescent or pinned at an epoch strictly greater than e — every
//     registered reader has passed the retirement.
//
// Commits are not readers here. The one shared structure a commit reads
// without a lock, core.SharedCover's generation, is plain immutable memory
// the garbage collector keeps alive for whoever holds it, so the commit
// path registers no record and pins nothing.
//
// What "free" means is per resource: for spill files it is the actual
// Remove/archive of the file (so a pinned replay never has its file deleted
// underneath it — the retry in replaySealed becomes a fallback, not the
// mechanism); for in-memory values (consumed tail blocks, old segState
// snapshots) it is dropping the last tracked reference so the garbage
// collector can take over. Reclamation is attempted synchronously at each
// retirement and again after every seal, so in quiescent (single-threaded)
// runs frees are prompt and deterministic.
//
// The reclaimer never blocks anyone: pinning is two uncontended atomic
// stores on the reader's own cache line, and a pinned reader only delays
// frees, never commits. The world write barrier remains only where a
// consistent cut of the *mutable* state is needed — Snapshot, Stream's
// freeze, Seal and Compact.
package track

import (
	"sync"
	"sync/atomic"
)

// epochRec is one reader's pin state, alone on its cache line(s) so pinning
// never causes invalidation traffic on another reader's line. pinned holds
// the global epoch the reader entered at, or 0 when quiescent.
type epochRec struct {
	_      [cacheLineSize]byte
	pinned atomic.Int64
	_      [cacheLineSize - 8]byte
}

// pin marks the record active at the current global epoch. It must run
// before the reader loads any pointer the reclaimer protects.
func (r *epochRec) pin(rc *reclaimer) { r.pinned.Store(rc.epoch.Load()) }

// unpin marks the record quiescent.
func (r *epochRec) unpin() { r.pinned.Store(0) }

// limboEntry is one retired resource awaiting its free.
type limboEntry struct {
	epoch int64
	free  func()
}

// reclaimer is the tracker's epoch-based reclamation state. The zero value
// is not ready; newTracker calls init.
type reclaimer struct {
	// epoch is the global epoch; it starts at 1 (0 is the quiescent pin
	// marker) and advances at every retirement.
	epoch atomic.Int64

	mu    sync.Mutex
	recs  []*epochRec
	limbo []limboEntry
}

func (rc *reclaimer) init() { rc.epoch.Store(1) }

// register adds a reader record. Readers (sealed-history replays) are
// transient and unregister when done.
func (rc *reclaimer) register() *epochRec {
	r := &epochRec{}
	rc.mu.Lock()
	rc.recs = append(rc.recs, r)
	rc.mu.Unlock()
	return r
}

// unregister removes a transient reader record and attempts reclamation —
// the departing reader may have been the last pin holding limbo back.
func (rc *reclaimer) unregister(r *epochRec) {
	rc.mu.Lock()
	for i, x := range rc.recs {
		if x == r {
			rc.recs = append(rc.recs[:i], rc.recs[i+1:]...)
			break
		}
	}
	rc.mu.Unlock()
	rc.tryFree()
}

// retire puts free on the limbo list at the current epoch, advances the
// epoch, and attempts reclamation immediately — in a quiescent tracker the
// free runs before retire returns, which keeps file retirement prompt and
// tests deterministic. free must be safe to run from any goroutine; it runs
// with no reclaimer or tracker lock held.
func (rc *reclaimer) retire(free func()) {
	e := rc.epoch.Add(1) - 1
	rc.mu.Lock()
	rc.limbo = append(rc.limbo, limboEntry{epoch: e, free: free})
	rc.mu.Unlock()
	rc.tryFree()
}

// retireDeferred is retire without the immediate reclamation attempt, for
// callers that hold the world write barrier (a free may perform filesystem
// I/O, which must never run inside the barrier). The entry drains at the
// next retire, unregister or reclaim call — afterSeal always makes one.
func (rc *reclaimer) retireDeferred(free func()) {
	e := rc.epoch.Add(1) - 1
	rc.mu.Lock()
	rc.limbo = append(rc.limbo, limboEntry{epoch: e, free: free})
	rc.mu.Unlock()
}

// reclaim attempts to free everything in limbo that no reader can still
// hold.
func (rc *reclaimer) reclaim() { rc.tryFree() }

// pending reports how many retired resources sit in limbo (for tests and
// observability).
func (rc *reclaimer) pending() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.limbo)
}

// tryFree frees every limbo entry whose epoch every record has passed:
// entry(e) is freed iff every record is quiescent or pinned at an epoch
// greater than e. The frees run outside the reclaimer lock.
func (rc *reclaimer) tryFree() {
	rc.mu.Lock()
	minPinned := int64(0) // 0 = no one pinned
	for _, r := range rc.recs {
		if p := r.pinned.Load(); p != 0 && (minPinned == 0 || p < minPinned) {
			minPinned = p
		}
	}
	var run []func()
	if minPinned == 0 {
		run = make([]func(), len(rc.limbo))
		for i, le := range rc.limbo {
			run[i] = le.free
		}
		rc.limbo = rc.limbo[:0]
	} else {
		keep := rc.limbo[:0]
		for _, le := range rc.limbo {
			if le.epoch < minPinned {
				run = append(run, le.free)
			} else {
				keep = append(keep, le)
			}
		}
		rc.limbo = keep
	}
	rc.mu.Unlock()
	for _, f := range run {
		f()
	}
}
