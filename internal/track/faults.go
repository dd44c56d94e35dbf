// Failure handling for the durable store: transient-error retry, degraded
// mode, and the disk probe that exits it.
//
// Every durable path (seal, catalog publication, directory fsync) runs
// through vfs.FS, so all of this is exercised deterministically by
// vfs.Faulty — see internal/track/crashtest for the exhaustive sweep.
//
// The retry discipline is deliberately coarse: a failed step never retries
// in place. Retrying a bare fsync is unsound — on most filesystems a failed
// fsync may drop the dirty pages, so a later "successful" fsync proves
// nothing about the data that failed. Instead the retried unit is always a
// whole idempotent cycle that rewrites its data from memory (temp file →
// write → fsync → close → rename, or open-dir → fsync). Errors that cannot
// plausibly clear on their own — ENOSPC, a missing file, a permission
// denial — escalate immediately.
package track

import (
	"errors"
	"io/fs"
	"math/rand/v2"
	"syscall"
	"time"

	"mixedclock/internal/vfs"
)

// Retry tuning. Variables, not constants, so fault-injection tests can
// tighten them; production code never mutates them. Retries can run inside
// the seal barrier, so the worst-case added stall is
// retryAttempts·retryMax ≈ 200ms — bounded, and only ever paid while the
// disk is misbehaving.
var (
	// retryAttempts is the total number of tries (first attempt included).
	retryAttempts = 4
	// retryBase and retryMax bound the exponential backoff between tries.
	retryBase = 2 * time.Millisecond
	retryMax  = 50 * time.Millisecond
)

// transientFault classifies err: true means the fault might clear on its
// own (an EIO blip, a failed fsync, a transient rename error) and the cycle
// is worth retrying; false means retrying cannot help — a full disk stays
// full, a missing file stays missing, and a crashed (frozen) vfs.Faulty
// stays crashed.
func transientFault(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, syscall.ENOSPC),
		errors.Is(err, fs.ErrNotExist),
		errors.Is(err, fs.ErrPermission),
		errors.Is(err, vfs.ErrCrashed):
		return false
	}
	return true
}

// retryTransient runs cycle, retrying transient-classed failures with
// bounded exponential backoff plus jitter. The cycle must be idempotent and
// self-contained — it rewrites everything it needs from memory, so a retry
// after any partial failure is sound.
func retryTransient(cycle func() error) error {
	var err error
	delay := retryBase
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			// Full jitter: sleep in [delay/2, delay), then double.
			time.Sleep(delay/2 + rand.N(delay/2))
			if delay *= 2; delay > retryMax {
				delay = retryMax
			}
		}
		if err = cycle(); err == nil || !transientFault(err) {
			return err
		}
	}
	return err
}

// Health is a point-in-time report of the tracker's storage health —
// the programmatic counterpart of the published catalog's Health /
// AutoSealDisarmed / DegradedSinceUnix fields.
type Health struct {
	// Degraded reports that a persistent spill failure flipped the tracker
	// into degraded mode: tracking continues fully in memory (commits,
	// snapshots, streams and monitors all keep working), but nothing new
	// reaches disk until the disk recovers. Since is when the flip happened.
	Degraded bool
	Since    time.Time
	// SealDisarmed reports that automatic sealing is currently disarmed
	// (set on entry to degraded mode; cleared by the periodic disk probe,
	// or by an explicit Seal or Compact that succeeds).
	SealDisarmed bool
	// UnsealedEvents is how many committed events sit only in memory.
	// While sealing is armed, a commit that would leave four SealEvery
	// intervals or more unsealed waits for the lifecycle worker, so it stays
	// below that bound; in degraded mode nothing waits and it grows without
	// bound — the price of staying live.
	UnsealedEvents int
	// Err is the tracker's first recorded error (Tracker.Err).
	Err error
}

// Health reports the tracker's storage health. It is cheap — a few atomic
// loads — and safe to call from any goroutine, including Do callbacks.
func (t *Tracker) Health() Health {
	h := Health{
		SealDisarmed:   t.sealBroken.Load(),
		UnsealedEvents: int(t.seq.Load() - t.sealed.Load()),
		Err:            t.Err(),
	}
	if ns := t.degradedSince.Load(); ns != 0 {
		h.Degraded = true
		h.Since = time.Unix(0, ns)
	}
	return h
}

// enterDegraded is the bookkeeping of flipping into degraded mode after an
// auto-seal failure: disarm sealing and stamp the flip time (kept across
// repeated failures — Since is when trouble started). Callers hold no
// locks; the fields are atomic.
func (t *Tracker) enterDegraded() {
	t.sealBroken.Store(true)
	t.degradedSince.CompareAndSwap(0, time.Now().UnixNano())
}

// defaultProbeInterval is how often a degraded tracker probes the spill
// directory when SpillPolicy.Probe is zero.
const defaultProbeInterval = time.Second

// probeInterval is the degraded-mode probe period (SpillPolicy.Probe).
func (t *Tracker) probeInterval() int64 {
	if t.spill.Probe > 0 {
		return int64(t.spill.Probe)
	}
	return int64(defaultProbeInterval)
}

// probeDue is the commit path's only check while auto-sealing is disarmed:
// whether a disk probe is due, which starts the lifecycle worker.
func (t *Tracker) probeDue() bool {
	return t.dir != "" && time.Now().UnixNano()-t.lastProbeNano.Load() >= t.probeInterval()
}

// maybeProbe runs on the lifecycle worker while auto-sealing is disarmed:
// at most once per probe interval, one caller wins the CAS and performs a
// cheap disk probe (create, write, fsync, remove a throwaway file). Success
// re-arms auto-sealing and reports true, so the worker goes on to seal the
// accumulated tail and — via publishSealLocked — clear degraded mode and
// publish a healthy catalog.
func (t *Tracker) maybeProbe() bool {
	if t.dir == "" {
		return false
	}
	now := time.Now().UnixNano()
	last := t.lastProbeNano.Load()
	if now-last < t.probeInterval() || !t.lastProbeNano.CompareAndSwap(last, now) {
		return false
	}
	if probeSpillDir(t.fs, t.dir) != nil {
		return false
	}
	t.sealBroken.Store(false)
	return true
}

// probeSpillDir checks that dir accepts a durable write: a throwaway temp
// file is created, written, fsynced and removed. The ".probe-*.tmp" name is
// in recovery's temp-sweep patterns, so a probe file stranded by a crash is
// cleaned up on the next Open.
func probeSpillDir(fsys vfs.FS, dir string) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return err
	}
	f, err := fsys.CreateTemp(dir, ".probe-*.tmp")
	if err != nil {
		return err
	}
	name := f.Name()
	_, werr := f.Write([]byte("probe"))
	serr := f.Sync()
	cerr := f.Close()
	rerr := fsys.Remove(name)
	for _, e := range []error{werr, serr, cerr, rerr} {
		if e != nil {
			return e
		}
	}
	return nil
}
