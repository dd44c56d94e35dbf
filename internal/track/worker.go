// The lifecycle workers: automatic sealing, and the compaction and
// retention passes that follow seals, run off the committing goroutine.
//
// A commit only checks whether a seal is due (SpillPolicy.autoSealDue, a
// few atomic loads) — or, while degraded, whether a disk probe is due —
// and, when one is, starts the seal worker through sealGate, a
// single-flight CAS. The worker starts on demand and exits as soon as
// nothing is due, so an idle tracker holds no goroutine and a tracker
// dropped without Close is collected like any other value. Each iteration
// seals the oldest due interval — [tailStart, next SealEvery multiple) once
// that boundary is committed, else the whole tail once SealInterval has
// lapsed — as its own segment, so segment edges and bytes are those a
// single committing goroutine produced when it sealed inline. After each
// seal the worker wakes backpressured commits, publishes the catalog,
// reclaims, wakes monitors and queues a compaction/retention pass; while
// degraded it runs the disk probe instead. It re-checks after clearing the
// gate, so a commit that found the gate held never loses its seal.
//
// Compaction and retention run on a second on-demand worker: one queued
// pass per seal, in seal order, serialized by compactGate. A pass plans
// over the sealed history as of the seal that queued it — the segments
// below that seal's point, and the epoch at its publish — which is what
// the same pass planned when it ran inline after the seal, however far the
// passes now lag. A seal never waits for a pass.
//
// Backpressure: a commit that finds backpressureIntervals × SealEvery or
// more events unsealed waits — on the lifecycle condition variable every
// seal publish broadcasts, not by spinning — until the backlog is below
// that bound again. Nothing waits while sealing is disarmed (degraded mode)
// or after Close.
//
// The explicit paths stay synchronous. Seal, Compact and Close first seal
// the due intervals the worker has not reached yet, one segment each, so
// what is sealed — and what lands on disk — does not depend on how far the
// worker lagged. Seal and Compact then wait for the passes their seals
// queued; Close waits out both workers before its final seal.
package track

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// backpressureIntervals is the unsealed backlog, in SealEvery intervals, at
// which a commit waits for the seal worker.
const backpressureIntervals = 4

// passReq is one queued compaction/retention pass: the seal point and
// epoch of the seal that queued it.
type passReq struct {
	upTo, epoch int
}

// lifecycle is the workers' shared state. mu guards the pass queue and its
// counters; cond is broadcast whenever a worker makes progress: a seal is
// published, sealing disarms, the seal worker clears its gate, a pass
// completes or the pass worker stops. Pass waiters, Close and backpressured
// commits all wait on it.
type lifecycle struct {
	mu           sync.Mutex
	cond         sync.Cond
	passes       []passReq
	passBusy     bool
	passStopped  bool // Close has drained the passes; no more are queued
	queued, done int64
}

func (lc *lifecycle) init() { lc.cond.L = &lc.mu }

// broadcast wakes every waiter on the lifecycle condition to re-check.
func (lc *lifecycle) broadcast() {
	lc.mu.Lock()
	lc.cond.Broadcast()
	lc.mu.Unlock()
}

// signalLifecycle is all a commit does for the lifecycle, after it has
// released every lock: start the seal worker when a seal (or, while
// degraded, a disk probe) is due, and wait only when the unsealed backlog
// has reached the backpressure bound.
func (t *Tracker) signalLifecycle() {
	if t.sealBroken.Load() {
		if t.probeDue() {
			t.startSealWorker()
		}
		return
	}
	committed, sealed := t.seq.Load(), t.sealed.Load()
	if !t.spill.autoSealDue(committed, sealed, t.lastSealNano.Load()) {
		return
	}
	backlog := committed - sealed
	storeMax(&t.unsealedMax, backlog)
	t.startSealWorker()
	if n := int64(t.spill.SealEvery); n > 0 && backlog >= backpressureIntervals*n {
		t.backpressure(backpressureIntervals * n)
	}
}

// backpressure blocks a commit until fewer than bound events are unsealed,
// sealing is disarmed, or the tracker is closed. It checks under lc.mu and
// every progress broadcast takes lc.mu after the state it reports changed,
// so a publish between the check and the wait is never missed. Only a
// commit that actually blocked counts as a backpressure wait.
func (t *Tracker) backpressure(bound int64) {
	var start time.Time
	t.lc.mu.Lock()
	for t.seq.Load()-t.sealed.Load() >= bound && !t.sealBroken.Load() && !t.closed.Load() {
		if start.IsZero() {
			start = time.Now()
		}
		t.startSealWorker()
		t.lc.cond.Wait()
	}
	t.lc.mu.Unlock()
	if !start.IsZero() {
		t.bpWaits.Add(1)
		t.bpNanos.Add(int64(time.Since(start)))
	}
}

// startSealWorker starts the seal worker unless one is already running.
func (t *Tracker) startSealWorker() {
	if t.sealGate.CompareAndSwap(false, true) {
		go t.sealWorker()
	}
}

// sealWorker runs while lifecycle work is due, holding sealGate; it clears
// the gate before it exits and then re-checks, so work that became due
// while it held the gate is never stranded.
func (t *Tracker) sealWorker() {
	for {
		if t.workerPark != nil {
			t.workerPark()
		}
		t.runDue()
		t.sealGate.Store(false)
		t.lc.broadcast()
		if !t.lifecycleDue() || !t.sealGate.CompareAndSwap(false, true) {
			return
		}
	}
}

// lifecycleDue reports whether the seal worker has anything to do.
func (t *Tracker) lifecycleDue() bool {
	switch {
	case t.closed.Load():
		return false
	case t.sealBroken.Load():
		return t.probeDue()
	}
	return t.spill.autoSealDue(t.seq.Load(), t.sealed.Load(), t.lastSealNano.Load())
}

// runDue seals due intervals one at a time until none is left. A failed
// seal flips the tracker into degraded mode: sealing disarms — otherwise
// every later commit would restart a worker that retries failing I/O
// against broken storage — and commits continue fully in memory. While
// degraded, the disk probe (faults.go) runs instead, and re-arms sealing
// once the disk recovers; an explicit Seal or Compact that succeeds re-arms
// it too.
func (t *Tracker) runDue() {
	for !t.closed.Load() {
		if t.sealBroken.Load() && !t.maybeProbe() {
			return
		}
		if !t.spill.autoSealDue(t.seq.Load(), t.sealed.Load(), t.lastSealNano.Load()) {
			return
		}
		sealed, err := t.sealNext(math.MaxInt, true)
		if err != nil {
			t.enterDegraded()
			t.noteErr(err)
			t.lc.broadcast()
			// Broken storage is exactly what a shipper wants to learn
			// promptly; publishing may fail on the same storage, which
			// noteErr keeps.
			t.publishCatalog()
			return
		}
		if !sealed {
			return
		}
	}
}

// sealNext seals the oldest due interval as one segment and runs its
// post-seal work, reporting whether anything was sealed: [tailStart, next
// SealEvery multiple) when that boundary is at or below limit and merged,
// else — when byTime and SealInterval has lapsed — the whole tail.
func (t *Tracker) sealNext(limit int, byTime bool) (bool, error) {
	sealed, err := t.sealSplit(func() int {
		end := t.committedLocked()
		if n := t.spill.SealEvery; n > 0 {
			if next := (t.tailStart/n + 1) * n; next <= min(end, limit) {
				return next
			}
		}
		if iv := t.spill.SealInterval; byTime && iv > 0 && time.Now().UnixNano()-t.lastSealNano.Load() >= int64(iv) {
			return end
		}
		return t.tailStart
	})
	if sealed {
		t.afterSeal()
	}
	return sealed, err
}

// catchUp seals, one segment each, the SealEvery intervals committed by
// the time it is called that the worker has not sealed yet — what an
// explicit Seal, Compact or Close does first, so their segments do not
// depend on how far the worker lagged. Commits racing it cannot keep it
// going: its limit is fixed on entry.
func (t *Tracker) catchUp() error {
	n, limit := t.spill.SealEvery, int(t.seq.Load())
	for n > 0 && (int(t.sealed.Load())/n+1)*n <= limit {
		sealed, err := t.sealNext(limit, false)
		if err != nil || !sealed {
			return err
		}
	}
	return nil
}

// afterSeal is the post-barrier work of every seal path: wake commits
// waiting on the backlog, publish the catalog shippers poll, drain what
// the seal retired under its barrier (consumed tail generations, the
// superseded history snapshot) from the limbo lists now that frees may
// run, and wake the monitors — newly sealed records are replayable without
// a barrier (non-blocking: a busy monitor picks the new segments up on its
// next pass anyway).
func (t *Tracker) afterSeal() {
	t.lc.broadcast()
	t.publishCatalog()
	t.reclaim.reclaim()
	t.tailReclaim.reclaim()
	t.notifyMonitors()
}

// queuePass queues the compaction/retention pass of a seal that ended at
// upTo in epoch, starting the pass worker if none is running, and returns
// the pass's ticket for waitPasses. With neither policy armed, or once
// Close has drained the passes, nothing is queued: a seal racing Close (a
// Seal or Compact that passed its closed check first) cannot start a pass
// worker on a closed tracker. Seal paths call it under sealMu, so passes
// run in seal order.
func (t *Tracker) queuePass(upTo, epoch int) int64 {
	t.lc.mu.Lock()
	defer t.lc.mu.Unlock()
	if (t.compact.MaxSegments <= 0 && !t.retain.enabled()) || t.lc.passStopped {
		return t.lc.queued
	}
	t.lc.passes = append(t.lc.passes, passReq{upTo: upTo, epoch: epoch})
	t.lc.queued++
	if !t.lc.passBusy {
		t.lc.passBusy = true
		go t.passWorker()
	}
	return t.lc.queued
}

// lastTicket returns the ticket of the pass queued last.
func (t *Tracker) lastTicket() int64 {
	t.lc.mu.Lock()
	defer t.lc.mu.Unlock()
	return t.lc.queued
}

// passWorker runs the queued passes in order and exits when none is left.
func (t *Tracker) passWorker() {
	t.lc.mu.Lock()
	for len(t.lc.passes) > 0 {
		r := t.lc.passes[0]
		t.lc.passes = t.lc.passes[1:]
		t.lc.mu.Unlock()
		t.runPass(r)
		t.lc.mu.Lock()
		t.lc.done++
		t.lc.cond.Broadcast()
	}
	t.lc.passes = nil
	t.lc.passBusy = false
	t.lc.cond.Broadcast()
	t.lc.mu.Unlock()
}

// runPass is one queued pass: the armed compaction policy, then the armed
// retention policy, both over the sealed history below r.upTo.
func (t *Tracker) runPass(r passReq) {
	t.compactGate.Lock()
	defer t.compactGate.Unlock()
	if p := t.compact; p.MaxSegments > 0 {
		if _, err := t.compactSegmentsLocked(p, r.upTo); err != nil {
			t.noteErr(fmt.Errorf("track: auto compaction: %w", err))
		}
	}
	if p := t.retain; p.enabled() {
		if _, err := t.retainSegmentsLocked(p, r.upTo, r.epoch); err != nil {
			t.noteErr(fmt.Errorf("track: auto retention: %w", err))
		}
	}
}

// waitPasses blocks until the pass with the given ticket, and every pass
// queued before it, has run.
func (t *Tracker) waitPasses(ticket int64) {
	t.lc.mu.Lock()
	for t.lc.done < ticket {
		t.lc.cond.Wait()
	}
	t.lc.mu.Unlock()
}

// stopPasses blocks until every queued pass has run and the pass worker
// has stopped, and refuses every later pass: Close's, after its catch-up
// seals have queued theirs.
func (t *Tracker) stopPasses() {
	t.lc.mu.Lock()
	for t.lc.passBusy {
		t.lc.cond.Wait()
	}
	t.lc.passStopped = true
	t.lc.mu.Unlock()
}

// holdSealGate waits out a running seal worker and takes its gate for
// good: Close's, so no worker starts on a closed tracker.
func (t *Tracker) holdSealGate() {
	t.lc.mu.Lock()
	for !t.sealGate.CompareAndSwap(false, true) {
		t.lc.cond.Wait()
	}
	t.lc.mu.Unlock()
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for m := a.Load(); v > m && !a.CompareAndSwap(m, v); m = a.Load() {
	}
}
