// Package track provides live causality tracking for real goroutines — the
// "multithreaded systems" substrate of the paper, with goroutines as threads
// and lock-protected shared objects as the paper's sequential objects.
//
// A Tracker owns the clock bookkeeping. Goroutines register as Threads,
// shared state registers as Objects, and every operation runs through
// Thread.Do, which enforces the per-object mutual exclusion the paper
// assumes, assigns the operation a mixed-vector-clock timestamp (growing the
// component set online via a configurable mechanism), and records the event.
// The recorded trace and timestamps can then be analyzed, validated, or
// replayed offline.
//
// # Concurrency model
//
// The hot path takes no global lock. The paper's update rule (§III-C) only
// ever touches the clocks of the event's own thread and object, so the
// tracker shards its state along exactly those lines:
//
//   - Thread-local: each Thread owns its clock and an append buffer of
//     recorded operations. Both are touched only by the goroutine driving
//     the Thread (a Thread must be used by one goroutine at a time), so
//     they need no lock at all.
//   - Object-striped: each Object carries an RWMutex — the paper's
//     per-object mutual exclusion — and, under it, the object's last-writer
//     clock. Writes hold the stripe exclusively across the user's function
//     and the clock update; reads hold it shared across the function (so
//     reader callbacks on one object run concurrently) and serialize only
//     the short clock commit on a secondary mutex. Either way the commit
//     that assigns the trace index and updates the object clock is mutually
//     exclusive per object, so the recorded object order is a real order
//     and cross-thread causality flows race-free through the stripe.
//   - Read-mostly: component discovery goes through core.SharedCover, whose
//     fast path (edge already revealed — the steady state) is lock-free:
//     one atomic generation load and one bitmap word load. Only a
//     genuinely new (thread, object) edge takes the cover's mutex and runs
//     the component-choice mechanism, in O(1) unless it adds a component.
//   - Global: a single atomic counter assigns each operation its dense
//     trace index. The counter is fetched while the object commit exclusion
//     is held, so index order refines both program order and object order —
//     i.e. the merged trace is a linearization of happened-before.
//
// # Batched commits
//
// Thread.DoBatch (and the mixed-object Batch builder on top of it) commits
// a run of operations under ONE round of the synchronization above: one
// stripe hold, one world read-lock shard hold, one cover observation, and
// one atomic fetch that claims the whole contiguous index range. Because
// the range is claimed while the object commit exclusion is held, index
// order remains a linearization of happened-before, and because the world
// read lock spans the run, a batch belongs entirely to one epoch. The
// stamps are identical to the equivalent loop of Do calls — batching is an
// amortization, never a semantic knob. See batch.go for the linearization
// argument case by case.
//
// # Delta records and lazy stamps
//
// Every thread and object clock is a flat vector (vclock.Flat): the delta
// capture and the fast path below already skip the redundant join work a
// tree clock would save, so the tracker offers no other representation.
// Committing an event does not flatten the thread's clock. The update rule
// runs in change-capture form (core.UpdateRuleDelta): the components the
// event actually changed are appended to a per-thread delta arena, and the
// record buffer stores only the event plus its arena range — O(changed
// components) per event instead of O(k), and no allocation beyond amortized
// buffer growth. Re-reading the same object the thread just left (the
// read-heavy steady state) is cheaper still: a version check proves the
// thread's clock already equals the object's, and the commit degenerates to
// ticking the covered components — O(1) at any clock width. Either way the
// capture ends with the ticks, and the record notes how many (0–2).
//
// The change sets stay the representation after the merge, too, and in
// place: the records and arenas a thread filled become part of the tail as
// they are. Merging is split in two. A barrier swaps every thread's buffer
// and arena out into a new tail generation — O(threads), no record touched
// — and the weave then builds, outside the barrier, the generation's trace
// order (indices are dense, so each record goes straight to its slot, no
// sort) and materializes no stamp; the only O(k) work left per event is
// one checkpoint copy of the thread's full stamp every stampCheckpointEvery
// (64, the delta log's sync interval) records of that thread. Full vectors are
// rebuilt only where a reader asks for them, from each thread's base — its
// immutable stamp as of the seal point — plus the thread's change sets:
//
//   - Seal seeds the log writer with each thread's base and encodes every
//     record straight from its change set and tick count: the thread's
//     first record of the segment comes out full, a record whose object has
//     appeared in the segment too as a derived record (its tick indices
//     only: the reader rebuilds the stamp as tick(join) of the thread's and
//     the object's previous stamps), any other as a delta — exactly the
//     bytes the writer's Append would write from the full stamp — and the
//     writer's running stamps become the new bases. A generation no reader
//     has woven yet is woven by its seal, which builds only the trace order
//     and takes the checkpoints below its cut from the writer's running
//     stamps as it encodes, so a seal applies each change set once;
//   - Stream and Snapshot replay the tail through per-thread running
//     vectors seeded from the bases;
//   - a lazy tail stamp (Stamped.Vector, the comparison helpers) walks its
//     thread's records back to the nearest checkpoint and replays at most
//     64 change sets, under the barrier, whatever the tail's length;
//   - a lazy sealed stamp replays its segment with no barrier at all.
//
// A Stamped returned by Do carries a handle, not a vector; the first
// Vector or comparison materializes it and memoizes.
//
// Trace recording is deferred: operations accumulate in per-thread buffers
// and are merged into trace order only when a snapshot is taken —
// Snapshot, Stream, a lazy tail stamp — or at sealing/compaction. The swap
// half of a merge is a stop-the-world barrier: it takes the write side of
// the world lock whose read side every commit holds (sharded per thread,
// see world.go), quiescing all in-flight clock updates. This is what
// preserves the epoch semantics of Compact (every event of epoch k commits
// before every event of epoch k+1) without a lock on the per-event path.
// The read lock covers only the commit, not the user's callback, so a
// callback may freely block, nest Do calls (on different objects, with the
// usual mutex lock-ordering discipline), or call any Tracker method —
// including Stamped.Vector on an earlier stamp. An operation whose callback
// straddles a compaction simply commits into the new epoch.
//
// # Locking
//
// From the outside in, and in the order they nest:
//
//   - sealMu serializes whole seals (Seal, the lifecycle worker's seals,
//     Compact, Close).
//   - The world lock: commits hold one shard's read side; the barriers —
//     a merge's swap, a seal's publish, Compact, Close — hold every shard's
//     write side, and lazy tail stamps read the tail under it.
//   - mergeMu serializes the weave, which whoever needs a generation first
//     runs — its seal, a Stream, a lazy stamp — with the world lock
//     released (Compact and Close excepted, which weave under their own
//     barrier). A seal that weaves holds it across its in-memory encode,
//     which fills the checkpoints, but releases it before the SHA-256 and
//     the spill. A reader may wait on mergeMu for a weave or that encode,
//     never for disk I/O; a commit never waits on it.
//   - reg guards registration and the threads' spare buffers; pendMu the
//     queue of swapped generations awaiting their weave; the lifecycle
//     state's mutex the queue of compaction and retention passes; errMu,
//     segMu and the reclaimer's own mutex are leaves.
//
// # Segment lifecycle: merge, seal, spill
//
// The canonical representation of the recorded computation is the delta
// stream, not a dense vector table. History moves through three states:
//
//   - Live: committed records sit in per-thread buffers as delta ranges
//     (above). Nothing is ordered or materialized yet.
//   - Tail: a barrier swaps the buffers into the tail as a new generation,
//     and the weave orders it — events in trace order with their change
//     sets and periodic full-stamp checkpoints. The tail is the mutable
//     suffix of history; Stamped.Vector of a tail event replays at most 64
//     change sets.
//   - Sealed: Seal (called by Compact, by the spill policy, or directly)
//     encodes the tail as one immutable delta-encoded segment — the
//     MVCLOG03 wire format inside a tlog "MVCSEG01" container that also
//     records the epoch, the global index range, and the clock width at
//     each record. A sealed segment never changes; a tracker opened on a
//     directory writes it to its own file there and drops it from memory
//     entirely, which is what bounds a long-running tracker's footprint:
//     live + tail are bounded by a small multiple of SpillPolicy.SealEvery
//     (backpressure, below), and the sealed prefix lives on disk.
//
// A segment never spans a compaction (Compact seals first, then starts the
// new epoch), so each segment belongs to exactly one epoch; an epoch may
// span many segments. Everything that reads history — Stream, SnapshotTo,
// Snapshot, lazy Stamped.Vector — replays sealed segments plus the tail, in
// trace order, through one path; the bulk readers never build a []Vector
// unless the caller asked for exactly that.
//
// Seal boundaries follow the spill policy: SealEvery seals at every
// multiple of the interval, each interval as its own segment (the overshoot
// waits in the tail for the next boundary), and SealInterval caps by wall
// time how stale sealed history can go under light traffic.
//
// # Lifecycle workers
//
// Automatic seals do not run on the committing goroutine (worker.go). A
// commit only checks whether a seal is due — a few atomic loads — and, if
// so, starts the seal worker through a single-flight gate. The worker seals
// each due interval, then wakes waiting commits, publishes the catalog,
// reclaims and wakes monitors; while degraded it runs the disk probe
// instead. Compaction and retention passes run on a second worker, one per
// seal in seal order, each planned over the sealed history as of its seal,
// so a seal never queues behind them and their outcome does not depend on
// how far they lag. Both workers start on demand and exit when nothing is
// due: an idle tracker holds no goroutine. Backpressure bounds the
// backlog: a commit that finds four SealEvery intervals or more unsealed
// waits, on a condition variable every seal publish broadcasts, until it
// is below that bound again — never while sealing is disarmed. Seal, Compact and Close
// stay synchronous: each first seals the intervals the worker has not,
// one segment each, so what is sealed does not depend on the worker's lag;
// Seal and Compact return once their passes have run, and Close waits out
// both workers.
//
// A seal stops commits only twice, for pauses independent of the number of
// records it seals. The first barrier swaps the per-thread buffers into a
// new generation and captures the generations below the seal point, with a
// snapshot of every thread's base. The weave, the encode straight from the
// swapped buffers, the SHA-256 and the spill's write, fsync and rename
// then run with no world lock held while commits fill fresh buffers; the
// seal weaves a generation no reader has woven yet as part of its encode,
// so a reader that needs the swapped records meanwhile waits for that
// in-memory encode at most, never for the hash or the I/O. The weave's
// buffers, the record widths and the payload are reused from seal to seal,
// so a seal allocates O(threads) besides the segment itself. The second
// barrier publishes: the segment joins the sealed history (swapHist), the
// threads get their new bases, the consumed generations are cut from the
// tail (one the seal point cuts through leaves a remainder sharing its
// buffers) and retired through the reclaimer, which hands their buffers
// back to the threads as spares once no reader holds them, and the resume
// manifest is brought up to date — it is kept as it is unless a reveal, a
// registration or an epoch changed it, so only a seal after such a change
// pays O(revealed edges) to rebuild it.
// A swap happens only when the seal point reaches into the per-thread
// buffers; a worker catching up seals intervals already in the tail. Stats
// reports the barriers' cumulative and longest hold. sealMu serializes
// seals with each other and with Compact and Close; those two keep their
// whole seal under their own barrier, since they must seal at the instant
// they act.
// Nothing is visible before the second barrier, so the catalog still lists
// a segment only after its file is durable.
//
// # Segment lifecycle: compaction tiers and the catalog
//
// Sealed segments are managed for the rest of their lives by the lifecycle
// manager (lifecycle.go). Tiered compaction (CompactSegments, armed
// automatically by Store.Compact) rewrites runs of adjacent small
// segments into larger ones: runs never cross an epoch boundary, a segment
// at or above CompactPolicy.TargetBytes has graduated out of its tier, and
// the pass triggers once more than MaxSegments segments exist. Compaction
// moves records between containers without changing one bit of replay:
// events, stamps, widths and SnapshotTo output bytes are all invariant.
// The merge runs with no lock held (segments are immutable) and only the
// list swap takes the barrier; replaced spill files are deleted after the
// catalog generation that stops listing them is published, and a Stream
// caught on a vanished file retries against the merged replacement.
//
// The Catalog is the stable read-only view external log shippers poll:
// epoch, index range, byte size, spill path and content hash per segment,
// plus tracker health (Err text and whether a spill failure disarmed
// auto-sealing). A spilling tracker also publishes it as catalog.json in
// the spill directory — rewritten by atomic rename after every seal and
// compaction — so shippers never touch the tracker at all.
//
// # Epoch-based reclamation
//
// The sealed-history snapshot (segment list, retention floor, catalog
// generation) is a copy-on-write value behind an atomic pointer, and its
// superseded versions are freed through a small epoch-based reclaimer
// (epoch.go) instead of a stop-the-world barrier. Every sealed replay pins
// a reclamation record around its loads; retiring a resource stamps it
// with the current reclamation epoch and parks it on a limbo list, and a
// limbo entry runs its free function only once no registered record is
// still pinned at or before that epoch. Commits pin nothing: the only
// shared structure they read without a lock is the cover generation, which
// is plain immutable memory the garbage collector keeps alive for any
// reader holding it.
//
// What goes through limbo: superseded segState snapshots (every seal,
// compaction, retention, recovery and Close swap), the tail generations a
// seal consumes — whose free hands their buffers back to the threads for
// reuse, in a second reclamation domain that a Stream pins across its tail
// replay and sealed replays never touch — and the spill files a compaction
// or retention pass stops listing — their deletion is the one free that
// touches the filesystem,
// and it runs strictly after the catalog generation without them is
// published. This is why CompactSegments and
// RetainSegments never take the world write lock: readers caught mid-flight
// are either pinned (the retirement waits for them) or started after the
// swap (they see the new list); a sealed replay that still loses its file
// to a retirement that predates its pin retries against the fresh list
// (stream.go). The limbo list drains opportunistically — at each retire
// when the tracker is quiescent, and after every seal barrier.
//
// Snapshot, Seal and Compact still stop the world, but for a different
// reason: they must take every thread's unmerged records at one instant to
// merge them in trace order. That barrier is about the per-thread buffers,
// not about reclamation — nothing else requires it anymore, and a Seal
// holds it only for the swap and for the publish, not for the weave, the
// encode or its I/O.
//
// # Streaming and barriers
//
// Stream (and SnapshotTo on top of it) delivers the computation to a
// StampSink without ever running the sink under the world barrier. Sealed
// segments are immutable, so they are read WITHOUT the world lock — the
// tracker keeps committing, sealing and compacting underneath. The merged
// tail is double-buffered: Stream takes the barrier only to swap the
// per-thread buffers into a new generation and snapshot the tail's
// generations, weaves what is pending, and replays the generations outside
// the barrier while commits continue into fresh buffers, rebuilding each
// stamp from the threads' bases snapshotted at the freeze. The memory
// model is freeze-and-share: a woven generation is never mutated again
// (sealing replaces a partially sealed one with a remainder that shares its
// storage rather than re-slicing it), and bases are immutable, so the
// replay needs no lock; the streamer's reclaimer pin keeps the buffers of
// generations a seal consumes from being reused underneath it. The stream
// is a consistent snapshot as of its freeze point, and the stall commits
// observe is the O(threads) swap — never the weave or the sink's I/O.
// Sinks may block and may call back into the Tracker.
//
// # Durability and recovery
//
// A spill directory is a durable run, bracketed by Open and Close
// (store.go). Open over an existing directory rebuilds a live tracker from
// catalog.json and the MVCSEG01 segments it lists (recover.go): every
// segment is verified by size, SHA-256 and a full decode; the per-thread
// and per-object clocks, the component cover and the epoch bookkeeping are
// rebuilt from the catalog's resume manifest plus a replay of the current
// epoch's records; and committing resumes at the next trace index. If the
// resume manifest is unusable or a listed segment is damaged, recovery
// falls back to starting a new epoch over the intact prefix — sound
// because the epoch barrier already restarts clocks at zero. Damage never
// panics and never fails the Open: a torn catalog.json falls back to the
// catalog.json.prev backup, torn or hash-mismatched tails and orphan spill
// files are quarantined (renamed aside with tlog.QuarantineSuffix), and
// the loss is reported via RecoveryInfo and Err. The contract: what
// survives a crash is exactly the last published catalog generation and
// the immutable segments it lists; what is lost is the unsealed suffix.
//
// Store gathers every storage policy into one validated struct. Retention
// (retain.go) retires graduated — closed-epoch — segments oldest-first by
// age or byte budget, deleting or archiving their files only after the
// catalog generation that stops listing them is published; replay then
// starts at the recorded retention floor. A Shipper (ship.go) mirrors the
// published history into another directory behind a durable cursor, and
// the mirror is itself a valid run directory.
//
// # Failure model and degraded operation
//
// Every durable path runs through the vfs.FS interface (Store.FS, vfs.OS
// by default), which makes the whole failure surface deterministically
// injectable: vfs.Faulty scripts per-operation errors, torn writes, and a
// crash freeze at any durable operation, and the crashtest package sweeps
// every such operation exhaustively. The commit hot path never touches the
// filesystem.
//
// Fault handling is tiered (faults.go). Transient errors retry the whole
// idempotent cycle — temp-write-fsync-rename, or open-dir-fsync — with
// bounded exponential backoff; a bare fsync is never retried in place,
// because filesystems may drop dirty pages on fsync failure and a later
// success would prove nothing ("fsyncgate"). Persistent failures (ENOSPC,
// permissions, vfs.ErrCrashed) escalate immediately: the tracker enters
// degraded mode — auto-sealing disarms, commits and every reader continue
// fully in memory, the unsealed suffix grows unboundedly, and both
// Tracker.Health and the published catalog (AutoSealDisarmed,
// DegradedSinceUnix) report the state. While degraded, a commit only
// checks whether a probe is due, and the lifecycle worker probes the spill
// directory with a throwaway durable write at most once per
// SpillPolicy.Probe (one-second default); a successful probe re-arms
// sealing, and the worker's next seals flush the backlog, clear degraded
// mode, and publish a healthy generation. Nothing waits on backpressure
// while degraded.
//
// # Online detection
//
// A Monitor (monitor.go) is the analyses of internal/detect,
// internal/predicate, internal/hb and internal/cut run incrementally over
// the live stream, registered with Tracker.NewMonitor. Its consumption
// model mirrors the two-tier streaming above:
//
//   - Sealed segments are evaluated as they are published. Every seal
//     wakes the monitor's goroutine with a non-blocking notification
//     after the seal barrier has lifted, and the monitor replays the new
//     records through the same lock-free sealed-replay path Stream uses —
//     commits, seals and compactions proceed while it evaluates, so a
//     monitor never extends a stop-the-world window.
//   - The frozen tail is evaluated on demand: Monitor.Sync catches the
//     monitor up to the exact present, paying the same short freeze
//     barrier a Snapshot takes, once, for the unsealed suffix only.
//
// Evaluation is windowed by MonitorPolicy.Window. The monitor keeps one
// ring of the last Window stamps, in a slab of Window rows × clock width
// whose rows are overwritten in place; the census compares each new event
// against it and counts what slid away as skipped (exact when the window
// is unbounded), and happened-before queries answer from it. In steady
// state a consumed record allocates nothing. Predicate watches explore the lattice of consistent cuts
// that extend the window's fold — every witness is a real consistent
// state of the full run (soundness), but states that needed an evicted
// event to still be pending are out of reach (bounded completeness). The
// schedule-sensitive pair scanner is exact with no window at all: the
// trace order delivered by the stream is a linearization of
// happened-before, so adjacency on each object resolves in O(objects +
// threads) state. Epochs need no special handling by callers — a Compact
// barrier orders everything across it, and the monitor folds its
// predicate window and resets per-object adjacency at each epoch
// boundary it consumes. A monitor starts at the retention floor; when a
// retention pass overtakes a lagging one, it skips to the new floor,
// counts the gap in MonitorStats.Skipped and restarts its windowed state
// there, as at an epoch boundary.
//
// Detections (schedule-sensitive pairs, order-watch violations, predicate
// witnesses) carry their epoch and global trace index as provenance. The
// first order violation arms an online recovery line — the maximal
// consistent cut excluding the violation's causal future — maintained
// from then on in O(threads) per record.
//
// # Load generation and headline numbers
//
// internal/loadgen drives a Tracker the way this package intends it to be
// driven — per-goroutine Threads, Do or Batch commits under contention, an
// optional Store and Monitor — and is the source of the repo's headline
// throughput and latency numbers (`mvc spam` and the end-to-end
// BenchmarkLoadgenMixed in the CI gate). Tracker.Stats is the
// harness-facing summary it reports: cumulative Events/Width/Epoch plus
// the lifecycle counters (seals, compaction and retention passes and the
// segments they eliminated, seal barrier holds, backpressure waits and the
// largest unsealed backlog) this package bumps on each path's success or,
// for the backpressure counters, only when a seal is due. Stats takes the
// same world read lock a commit takes, so it must not be called from inside
// a Do callback.
package track

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/vclock"
	"mixedclock/internal/vfs"
)

// Stamped is one recorded operation with its timestamp. Epoch counts the
// compactions that preceded the operation (see Compact); comparisons
// between stamps honour it.
//
// The timestamp itself is lazy: Do records only the components the
// operation changed, and Vector (or any comparison helper) reconstructs the
// full vector on first use, then memoizes it, so later uses are free. A
// stamp still in the unsealed tail is rebuilt under the same barrier
// Snapshot takes, from at most 64 change sets; a sealed one is read back
// from its segment with no barrier. Bulk consumers should prefer one
// Snapshot or Stream call over materializing stamps one by one.
type Stamped struct {
	Event event.Event
	Epoch int
	cell  *stampCell
}

// Vector returns the operation's full timestamp as an independent copy. The
// zero Stamped returns nil, as does a stamp whose sealed segment could not
// be read back (a spill file lost underneath the tracker — the cause is in
// Err, and the read is retried on the next call rather than memoized).
func (s Stamped) Vector() vclock.Vector {
	if s.cell == nil {
		return nil
	}
	return s.cell.vector().Clone()
}

// vec returns the memoized timestamp without copying — for internal
// comparisons only. Comparisons cannot limp along without the stamp (a nil
// vector would silently read as all-zero, inventing causality), so a
// materialization failure here panics with the underlying cause.
func (s Stamped) vec() vclock.Vector {
	if s.cell == nil {
		return nil
	}
	v := s.cell.vector()
	if v == nil {
		panic(fmt.Sprintf("track: stamp of event %d cannot be materialized (sealed segment unreadable): %v",
			s.cell.idx, s.cell.t.Err()))
	}
	return v
}

// HappenedBefore reports whether s's operation causally precedes t's,
// decided from the timestamps (Theorem 2) and, across epochs, the
// compaction barrier order.
func (s Stamped) HappenedBefore(t Stamped) bool { return s.Order(t) == vclock.Before }

// Concurrent reports whether the two operations are causally unrelated.
// Operations in different epochs are never concurrent: compaction is a
// barrier.
func (s Stamped) Concurrent(t Stamped) bool { return s.Order(t) == vclock.Concurrent }

// stampCell is the shared lazy-materialization state behind a Stamped. The
// first vector() call reconstructs the stamp through the tracker barrier and
// memoizes; copies of the Stamped share the cell, so they share the work.
// Only success is memoized: a failed reconstruction (sealed segment
// unreadable) returns nil and is retried on the next call, so restoring the
// spill file restores the stamp.
type stampCell struct {
	t   *Tracker
	idx int
	mu  sync.Mutex
	v   vclock.Vector
}

func (c *stampCell) vector() vclock.Vector {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.v == nil {
		c.v = c.t.stampAt(c.idx)
	}
	return c.v
}

// cellChunkSize is how many stamp cells a thread allocates at once; cells
// are handed out from the chunk so the per-event allocation amortizes away.
const cellChunkSize = 128

// tailBlock is one generation of the merged-but-unsealed tail: every record
// one barrier swapped out of the per-thread buffers, covering the dense
// global indices [start, end), all of one epoch. The barrier moves each
// committing thread's record buffer and delta arena into thr as they stand
// — no record is copied — and the weave (weaveTo, or the seal that consumes
// the generation, encodeSeal) then builds, outside the barrier, the trace
// order over them and the full-stamp checkpoints some of them carry. A
// woven generation is never mutated again, so a Stream or a seal may read
// it with no lock held; a seal that cuts through one leaves in the tail a
// remainder (suffix) that shares its storage rather than re-slicing or
// copying it, and the storage goes back to the threads, and the weave's
// buffers to the next weave, only once the last generation sharing it is
// consumed and no reader holds it.
type tailBlock struct {
	start, end int
	epoch      int
	// thr is one entry per thread that committed since the previous
	// generation, in thread-ID order.
	thr []genThread
	// Written by the weave and read only after it: order[i] is record
	// start+i, and width is the widest record, which sizes a replay's
	// per-thread running vectors up front. order and the checkpoints are
	// carved out of bufs, which a remainder shares whole.
	order []genSlot
	width int
	bufs  weaveBufs
}

// weaveBufs is the storage a weave carves one generation's trace order and
// checkpoints out of: order holds a slot per record, ckpts the checkpoint
// headers and slab their components. A consumed generation hands it back
// (recycle), so a steady run of seals allocates none of it.
type weaveBufs struct {
	order []genSlot
	ckpts []vclock.Vector
	slab  []uint64
}

// genThread is one thread's share of a generation: its records in program
// order and the delta arena their change sets live in (both swapped out of
// the thread), plus the checkpoints the weave copied out — from the
// thread's run vector, or, below a seal's cut, from the seal's log writer,
// whose running stamp is the same vector. prev is the global
// index of the thread's last record before the swap (-1 when none this
// epoch), the link a lazy stamp walks back along; before counts the
// thread's records of the epoch merged ahead of the swap, which fixes
// where its checkpoints fall: record p carries one when (before+p+1) is a
// multiple of stampCheckpointEvery, and ckpts holds them in record order.
// off is how many of recs lie below the generation's start: nonzero only
// in the remainder of a generation a seal cut through, which shares the
// records, arena and checkpoints of the whole swap and whose records
// recs[:off] are sealed.
type genThread struct {
	th     *Thread
	id     event.ThreadID
	recs   []record
	deltas []vclock.Delta
	prev   int
	before int
	off    int
	ckpts  []vclock.Vector
}

// genSlot is one record of a generation in trace order: the thread entry
// and position it sits at, plus a copy of what an in-order pass reads — the
// record's change set in the entry's delta arena, its width, object, op and
// tick count — so a replay or an encode walks the slots front to back and
// never gathers the records themselves from the threads' buffers. opTicks
// packs the op above the tick count's two bits, keeping the slot at seven
// words of 32 bits.
type genSlot struct {
	thr, pos   int32
	start, end int32
	width      int32
	object     int32
	opTicks    int32
}

// event returns the slot's event, record start+i of its generation g.
func (sl *genSlot) event(g *tailBlock, i int) event.Event {
	return event.Event{Index: g.start + i, Thread: g.thr[sl.thr].id, Object: event.ObjectID(sl.object), Op: event.Op(sl.opTicks >> 2)}
}

// ticks returns how many of the record's change set's last entries are its
// ticks (see record).
func (sl *genSlot) ticks() int { return int(sl.opTicks & 3) }

// stampCheckpointEvery is the per-thread cadence of full-stamp checkpoints
// in the tail: every such record of a thread keeps its materialized stamp,
// so a lazy tail stamp replays at most this many change sets. It matches
// the delta log writer's sync interval — the same trade of one full vector
// per interval against bounded replay.
const stampCheckpointEvery = tlog.DefaultSyncEvery

// isCheckpoint reports whether record p carries a checkpoint.
func (gt *genThread) isCheckpoint(p int) bool {
	return (gt.before+p+1)%stampCheckpointEvery == 0
}

// below counts the records with global index below idx.
func (gt *genThread) below(idx int) int {
	return sort.Search(len(gt.recs), func(i int) bool { return gt.recs[i].ev.Index >= idx })
}

// ckptsBelow counts the checkpoints records [0, q) carry.
func (gt *genThread) ckptsBelow(q int) int {
	first := stampCheckpointEvery - 1 - gt.before%stampCheckpointEvery
	if q <= first {
		return 0
	}
	return (q-first-1)/stampCheckpointEvery + 1
}

// checkpoint returns the checkpoint nearest at or before record p: its
// position and stamp, or -1 and nil when no record up to p carries one.
func (gt *genThread) checkpoint(p int) (int, vclock.Vector) {
	n := gt.ckptsBelow(p + 1)
	if n == 0 {
		return -1, nil
	}
	first := stampCheckpointEvery - 1 - gt.before%stampCheckpointEvery
	return first + (n-1)*stampCheckpointEvery, gt.ckpts[n-1]
}

// suffix returns the remainder of g from global index from on — what a
// seal that cuts through g leaves in the tail — as a generation that shares
// g's records, arenas, checkpoints and trace order. Only the thread
// entries are copied, each noting in off how many of its records fall
// below from, so the cost is O(threads), whatever the records. g must be
// woven; so is the result. The shared buffers go back to the threads
// when the remainder, not g, is consumed.
func (g *tailBlock) suffix(from int) *tailBlock {
	nb := &tailBlock{start: from, end: g.end, epoch: g.epoch, order: g.order[from-g.start:], width: g.width, bufs: g.bufs}
	nb.thr = make([]genThread, len(g.thr))
	for k, gt := range g.thr {
		gt.off = gt.below(from)
		nb.thr[k] = gt
	}
	return nb
}

// addCheckpoint copies v, padded with zeros to width, out of g's slab as
// gt's next checkpoint.
func (g *tailBlock) addCheckpoint(gt *genThread, v vclock.Vector, width int) {
	slab := g.bufs.slab
	lo := len(slab)
	slab = append(slab, v...)
	if n := width - len(v); n > 0 {
		slab = append(slab, make([]uint64, n)...)
	}
	gt.ckpts = append(gt.ckpts, slab[lo:len(slab):len(slab)])
	g.bufs.slab = slab
}

// record is one committed operation waiting in a thread's append buffer:
// the event plus the arena range of the components it changed relative to
// the thread's previous record, the clock width at commit time (stamps are
// padded to it at materialization, matching what Flatten used to return),
// and how many of the range's last entries are the event's ticks (0–2) —
// what lets a seal write the record derived (tlog.DeltaWriter.AppendDelta).
// width and ticks share one word.
type record struct {
	ev         event.Event
	start, end int
	width      int32
	ticks      uint8
}

// Tracker coordinates causality tracking across goroutines. Create one per
// tracked computation with Open; all methods are safe for concurrent use.
type Tracker struct {
	// world is the stop-the-world barrier: every Do holds one of its shards
	// for reading across its commit; snapshots, Seal and Compact hold every
	// shard for writing, which quiesces all in-flight operations.
	world *worldLock

	// reg guards thread and object registration (the slices, not the
	// per-thread/per-object clock state).
	reg     sync.Mutex
	threads []*Thread
	objects []*Object

	// cover is the concurrent component-discovery path; replaced wholesale
	// at compaction (under the world barrier). The pointer itself is
	// atomic so read-only accessors (Size, Components) stay safe — and
	// deadlock-free even inside a Do callback — without the world lock.
	cover atomic.Pointer[core.SharedCover]

	// seq assigns each commit its dense global trace index; fetched while
	// the object commit exclusion is held so index order linearizes
	// happened-before. Padded onto its own cache line: the RMW per commit
	// is unavoidable (see world.go), but it must not drag the read-mostly
	// fields above into invalidation traffic.
	seq paddedInt64

	// Merged history, written only under the world write lock. Records
	// below tailStart live in segs (sealed, immutable, possibly spilled to
	// disk); tail holds the merged-but-unsealed suffix as a chain of
	// contiguous generations, one per barrier that found new records, each
	// immutable once woven (a replay or encode may be reading it with no
	// lock held).
	spill   SpillPolicy
	compact CompactPolicy
	retain  RetainPolicy
	// dir is the spill directory Open was given: sealed segments are
	// written there, one file each, and dropped from memory, and the
	// catalog is published there. Empty keeps sealed segments in memory.
	dir string
	// fs is the filesystem every durable path runs on (Store.FS; vfs.OS by
	// default). Set once at construction, never on the commit hot path.
	fs        vfs.FS
	tailStart int
	tail      []*tailBlock
	// mergeMu serializes the weave, the half of a merge that runs outside
	// the barrier (weaveTo, and a seal's own weave in encodeSeal), and owns
	// every thread's run vector. pendMu guards pending, the generations
	// swapped but not yet woven, oldest first. woven is where the last
	// woven generation ends: a reader whose records all lie below it has
	// nothing to wait for. spareWeave is the weave buffers a consumed
	// generation handed back (recycle), guarded by reg.
	mergeMu    sync.Mutex
	pendMu     sync.Mutex
	pending    []*tailBlock
	woven      atomic.Int64
	spareWeave weaveBufs
	// hist is the current sealed-history snapshot (segment list, retention
	// floor, catalog generation) as one immutable value behind an atomic
	// pointer. Readers — Catalog, Segments, streams, lazy stamps — load it
	// with no lock; writers derive a replacement through swapHist, and the
	// superseded snapshot (plus any spill files it alone listed) is freed
	// through the epoch-based reclaimer (epoch.go) once every reader has
	// passed. This is what lets compaction and retention swap the list
	// without the world write barrier.
	hist atomic.Pointer[segState]
	// segMu serializes hist writers only (seal, compaction, retention,
	// Close, recovery); it is never taken by readers or commits.
	segMu sync.Mutex
	// sealMu serializes whole seals — Seal, the lifecycle worker's seals,
	// Compact, Close — against each other. A seal holds it across the
	// encode and spill it runs between its two short barriers, so at most
	// one seal is ever in flight and the tail it froze cannot be cut
	// underneath it. It also guards sealWidths and sealPayload, the
	// scratch each seal encodes into (writeSeal).
	sealMu      sync.Mutex
	sealWidths  []int
	sealPayload bytes.Buffer
	// reclaim is the epoch-based reclamation state: sealed replays pin it,
	// retired resources wait on its limbo list. tailReclaim is a second
	// domain for the tail generations seals consume, pinned only by a
	// Stream's tail replay, so a lagging sealed replay (a monitor catching
	// up) never holds a thread's spare buffers back.
	reclaim     reclaimer
	tailReclaim reclaimer
	// resume is the latest resume manifest, captured under the world write
	// lock at every seal, compaction and Open (each capture builds a fresh
	// immutable value), and embedded in the published catalog so a
	// restarted process can rebuild the tracker. Read under RLock(0).
	resume *tlog.CatalogResume
	// recovery describes what Open reconstructed; nil for in-memory
	// trackers.
	recovery *RecoveryInfo
	// closed is set by Close: Do panics, mutating lifecycle calls error,
	// reads keep working (post-mortem inspection).
	closed atomic.Bool
	// sealed mirrors tailStart for the lock-free auto-seal check in Do;
	// sealGate is held by the running seal worker (worker.go), so at most
	// one runs, and by Close for good; sealBroken disarms auto-sealing
	// after a spill failure (one failed seal, not one per commit) until a
	// probe, an explicit Seal or a Compact succeeds. lastSealNano is when
	// the last successful seal (or the tracker's creation) happened — the
	// reference point of the wall-time sealing trigger. sealArmed is set
	// once at construction when the spill policy has any automatic
	// trigger: when clear, the post-commit signalLifecycle call is skipped
	// entirely, so an unspilled tracker's hot path pays nothing for it.
	sealed       atomic.Int64
	sealGate     atomic.Bool
	sealBroken   atomic.Bool
	sealArmed    atomic.Bool
	lastSealNano atomic.Int64
	// degradedSince is when a persistent spill failure flipped the tracker
	// into degraded mode (unix nanos; 0 = healthy). Set by enterDegraded,
	// cleared by the next successful seal; surfaced via Health() and the
	// catalog's DegradedSinceUnix. lastProbeNano rate-limits the disk probe
	// that re-arms sealing while degraded (faults.go).
	degradedSince atomic.Int64
	lastProbeNano atomic.Int64
	// compactGate admits one segment-compaction or retention pass at a
	// time: the pass worker waits for it, an explicit CompactSegments or
	// RetainSegments that finds it held does nothing. catMu serializes
	// catalog.json publications and guards catBuf, the buffer each one is
	// encoded into. The catalog generation itself lives in hist (bumped by
	// every snapshot swap).
	compactGate sync.Mutex
	catMu       sync.Mutex
	catBuf      bytes.Buffer
	// lc is the lifecycle workers' shared state: the queue of compaction
	// and retention passes, and the condition variable pass waiters, Close
	// and backpressured commits wait on.
	lc lifecycle

	// Cumulative lifecycle counters surfaced through Stats: successful
	// seal passes, segment-compaction passes and the segments they
	// eliminated, retention passes and the segments they retired.
	// Monotonic across epochs; each is bumped once on its path's success,
	// never on the commit hot path.
	sealPasses    atomic.Int64
	compactPasses atomic.Int64
	compactedSegs atomic.Int64
	retainPasses  atomic.Int64
	retiredSegs   atomic.Int64
	// sealBarrierNanos and sealBarrierMax are the cumulative and the
	// longest world-lock hold of a split seal's two barriers. bpWaits and
	// bpNanos count the commits that waited at the backpressure bound and
	// their total wait; unsealedMax is the largest unsealed backlog a
	// commit saw when a seal was due.
	sealBarrierNanos atomic.Int64
	sealBarrierMax   atomic.Int64
	bpWaits          atomic.Int64
	bpNanos          atomic.Int64
	unsealedMax      atomic.Int64
	// sealPark, when set (tests only), runs on a split seal's goroutine
	// right after its first barrier, before the weave, with the seal's cut:
	// it holds a seal between the swap and the interleave for as long as a
	// test needs. workerPark, when set (tests only), runs at the top of
	// every seal-worker iteration, before it seals anything.
	sealPark   func(upTo int)
	workerPark func()

	// Epoch bookkeeping, written only under the world write lock. epoch is
	// additionally read by commits under the read lock; epochStart[i] is
	// the trace index where epoch i+1 began.
	epoch      int
	epochStart []int

	// firstErr keeps the first tracker error across epochs: clock misuse,
	// or an I/O failure sealing, spilling or re-reading a segment.
	errMu    sync.Mutex
	firstErr error

	// monitors are the registered online detectors (monitor.go). monMu
	// guards the slice only; each Monitor serializes its own consumption.
	// Seal and Close wake them with a non-blocking send after their
	// barriers have lifted, so monitors never extend a stop-the-world
	// window.
	monMu    sync.Mutex
	monitors []*Monitor
}

// segState is one immutable sealed-history snapshot: the sealed-segment
// list (oldest first), the retention floor (events below it were retired by
// a RetainPolicy pass, so sealed history covers [retained, tailStart)), and
// the catalog generation, which changes exactly when the snapshot does.
// A published segState is never mutated; writers derive a replacement via
// swapHist and the old value is retired through the reclaimer.
type segState struct {
	segs     []*segment
	retained int
	gen      int64
}

// swapHist publishes the sealed-history snapshot derive builds from the
// current one, and retires the superseded snapshot onto the reclaimer's
// limbo list. segMu serializes the deriving writers against each other;
// readers never take it — they just load t.hist. Safe to call under the
// world write barrier (the retirement is deferred; no I/O runs here).
func (t *Tracker) swapHist(derive func(old *segState) *segState) *segState {
	t.segMu.Lock()
	old := t.hist.Load()
	ns := derive(old)
	t.hist.Store(ns)
	t.segMu.Unlock()
	t.reclaim.retireDeferred(func() { _ = old })
	return ns
}

// Option configures a Tracker.
type Option func(*options)

type options struct {
	mech  core.Mechanism
	store Store
}

// WithMechanism selects the online component-choice mechanism (default: the
// paper's recommended Hybrid — Popularity first, NaiveThreads once the
// revealed graph grows dense or large).
func WithMechanism(m core.Mechanism) Option {
	return func(o *options) { o.mech = m }
}

func defaultOptions() options {
	return options{mech: core.NewHybrid()}
}

// newTracker builds an empty tracker spilling to dir ("" keeps sealed
// history in memory); Open validates o first and recovers dir after.
func newTracker(dir string, o options) *Tracker {
	t := &Tracker{
		world:   newWorldLock(),
		spill:   o.store.Spill,
		compact: o.store.Compact,
		retain:  o.store.Retain,
		dir:     dir,
		fs:      o.store.FS,
	}
	if t.fs == nil {
		t.fs = vfs.OS
	}
	t.reclaim.init()
	t.tailReclaim.init()
	t.lc.init()
	t.hist.Store(&segState{})
	t.lastSealNano.Store(time.Now().UnixNano())
	t.sealArmed.Store(t.spill.SealEvery > 0 || t.spill.SealInterval > 0)
	t.cover.Store(core.NewSharedCover(core.NewCoverTracker(o.mech)))
	return t
}

// Thread is a registered logical thread. A Thread must be used by one
// goroutine at a time (typically the goroutine that created it), mirroring
// the paper's sequential processes. The thread's clock, delta arena and
// record buffer are owned by that goroutine; only the stop-the-world
// barrier touches them from outside.
type Thread struct {
	t    *Tracker
	id   event.ThreadID
	name string
	// shard is the thread's slice of the sharded world barrier; commits
	// from this thread only ever touch that shard's reader count.
	shard int

	// clock is the thread's working clock, nil until the first operation
	// of an epoch. Owned by the driving goroutine (under the world read
	// lock); reset by Compact (under the world write lock).
	clock *vclock.Flat
	// buf holds committed records not yet merged into the tracker's trace;
	// deltas is the arena their change sets live in. A merge barrier moves
	// both into a tail generation and installs the spares in their place:
	// the buffers of a generation a seal consumed, handed back through the
	// reclaimer once no reader holds them (recycle). The spares are
	// guarded by the tracker's reg mutex.
	buf         []record
	deltas      []vclock.Delta
	spareBuf    []record
	spareDeltas []vclock.Delta
	// base is the thread's stamp as of tailStart — the stamp of its last
	// sealed record of the epoch, nil when it has none. Immutable: a seal
	// replaces it with a fresh vector, Compact resets it, recovery restores
	// it, so a Stream or seal may read a snapshot of it with no lock held.
	base vclock.Vector
	// run is the stamp of the thread's last woven record, advanced in
	// place by the weave and copied into a tail checkpoint every
	// stampCheckpointEvery records; it is owned by the tracker's mergeMu.
	// A seal that weaves the generations it consumes leaves run alone
	// while it encodes, then overwrites it, in place, with its writer's
	// running stamp (the thread's new base) and advances it over the
	// records above its cut.
	// last is the global index of the thread's last merged record (-1 when
	// none this epoch) and merged counts the thread's merged records of the
	// epoch; both are owned by the barrier.
	run    vclock.Vector
	last   int
	merged int
	// cells is the current chunk lazy stamp handles are allocated from.
	cells     []stampCell
	cellsUsed int

	// One-entry stripe cache for the re-acquisition fast path: when the
	// thread's last commit anywhere was on lastObj and the object's
	// version counter still matches, the thread's clock and the object's
	// clock are provably identical, and the next commit on lastObj can
	// skip the join entirely. Reset by Compact.
	lastObj *Object
	lastVer uint64

	// batchOut is the stamps buffer DoBatch returns, reused batch after
	// batch; owned by the driving goroutine. It comes last, so the fields
	// every commit touches keep their offsets.
	batchOut []Stamped
}

// ID returns the thread's dense identifier.
func (th *Thread) ID() event.ThreadID { return th.id }

// Name returns the label passed to NewThread.
func (th *Thread) Name() string { return th.name }

// Object is a registered shared object. Its embedded RWMutex enforces the
// paper's assumption that operations on a single object are sequential —
// writes exclusively, reads sharing the stripe with other reads — and
// protects the object's last-writer clock, the stripe through which all
// cross-thread causality flows.
type Object struct {
	// mu serializes user functions: writers exclusively, readers shared.
	mu sync.RWMutex
	// cmu serializes commits among readers (writers already exclude
	// everything via mu). Every commit on the object runs under mu
	// (either mode) plus, for reads, cmu — so any two commits are
	// mutually exclusive and the object's clock chain is a real order.
	cmu  sync.Mutex
	t    *Tracker
	id   event.ObjectID
	name string

	// clock is the full clock of the object's latest operation, nil until
	// the first operation of an epoch. Protected by the commit exclusion;
	// reset by Compact (under the world write lock, with no Do in flight).
	clock *vclock.Flat
	// ver counts commits on this object; the thread-side one-entry cache
	// uses it to prove the object clock is unchanged since the thread's
	// own last commit here.
	ver uint64
}

// ID returns the object's dense identifier.
func (o *Object) ID() event.ObjectID { return o.id }

// Name returns the label passed to NewObject.
func (o *Object) Name() string { return o.name }

// NewThread registers a new logical thread.
func (t *Tracker) NewThread(name string) *Thread {
	t.reg.Lock()
	defer t.reg.Unlock()
	th := &Thread{t: t, id: event.ThreadID(len(t.threads)), name: name, last: -1}
	th.shard = t.world.shardFor(int(th.id))
	t.threads = append(t.threads, th)
	return th
}

// NewObject registers a new shared object.
func (t *Tracker) NewObject(name string) *Object {
	t.reg.Lock()
	defer t.reg.Unlock()
	o := &Object{t: t, id: event.ObjectID(len(t.objects)), name: name}
	t.objects = append(t.objects, o)
	return o
}

// Do performs fn as one operation by th on o: it locks o (sequentializing
// the object), runs fn, then timestamps and records the operation. Writes
// hold the object exclusively across both fn and the clock update, so the
// recorded object order matches the execution order. Reads hold the object
// shared across fn — read callbacks on one object run concurrently with
// each other (they must not mutate the object, which the read/write split
// already promised) — and serialize only the clock commit, whose order
// becomes the recorded object order of the reads.
//
// Nested Do calls on *different* objects are allowed (the inner operation is
// recorded first, as its own event); the usual lock-ordering discipline
// applies, exactly as with raw mutexes. fn may block or call any Tracker
// method: the world read lock is taken only around the commit that follows
// fn, so callbacks cannot deadlock against a concurrent Snapshot or Compact.
func (th *Thread) Do(o *Object, op event.Op, fn func()) Stamped {
	s := th.do(o, op, fn)
	// With every lock released, honour the spill policy: the commit only
	// signals the lifecycle worker (worker.go), which seals on its own
	// goroutine. The armed check is one atomic load, so a tracker with no
	// automatic seal trigger skips the whole policy evaluation on every
	// event.
	if th.t.sealArmed.Load() {
		th.t.signalLifecycle()
	}
	return s
}

func (th *Thread) do(o *Object, op event.Op, fn func()) Stamped {
	t := th.t
	if t != o.t {
		panic(fmt.Sprintf("track: thread %q and object %q belong to different trackers", th.name, o.name))
	}
	if t.closed.Load() {
		panic(fmt.Sprintf("track: thread %q: Do on a closed Tracker", th.name))
	}
	if op == event.OpRead {
		o.mu.RLock()
		defer o.mu.RUnlock()
		if fn != nil {
			fn()
		}
		t.world.RLock(th.shard)
		defer t.world.RUnlock(th.shard)
		// Readers share mu, so the commit chain needs its own exclusion.
		o.cmu.Lock()
		defer o.cmu.Unlock()
		return t.commit(th, o, op)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if fn != nil {
		fn()
	}
	t.world.RLock(th.shard)
	defer t.world.RUnlock(th.shard)
	return t.commit(th, o, op)
}

// Write is shorthand for Do(o, event.OpWrite, fn).
func (th *Thread) Write(o *Object, fn func()) Stamped { return th.Do(o, event.OpWrite, fn) }

// Read is shorthand for Do(o, event.OpRead, fn).
func (th *Thread) Read(o *Object, fn func()) Stamped { return th.Do(o, event.OpRead, fn) }

// commit applies the §III-C update rule in change-capture form and records
// the event. The caller holds the object commit exclusion (mu exclusively
// for writes; mu shared plus cmu for reads) and the world read lock; the
// thread's clock needs no lock (the calling goroutine owns it). The only
// cross-thread contention left is the object stripe itself and one atomic
// increment — the cover's steady state is a lock-free generation load.
func (t *Tracker) commit(th *Thread, o *Object, op event.Op) Stamped {
	thrIdx, objIdx, width := t.cover.Load().Observe(th.id, o.id)
	idx := int(t.seq.Add(1)) - 1
	return t.commitOne(th, o, op, idx, thrIdx, objIdx, width)
}

// commitOne is the per-event core of commit and doBatch: run the update
// rule for one event whose trace index was already claimed and whose tick
// plan (component indices and width) was already resolved, and record it.
// The caller holds the object commit exclusion and the world read lock.
func (t *Tracker) commitOne(th *Thread, o *Object, op event.Op, idx, thrIdx, objIdx, width int) Stamped {
	tv := th.clock
	if tv == nil {
		tv = vclock.NewFlat(0)
		th.clock = tv
	}
	start := len(th.deltas)
	// The ticks are the capture's last entries: core.TickCovered runs last.
	var ticks int
	if th.lastObj == o && th.lastVer == o.ver {
		// Re-acquisition fast path: the thread's last commit anywhere was
		// on o (it set lastObj and lastVer) and o's version is unchanged,
		// so no other thread has committed here since — th.clock and
		// o.clock are the same value. The join is a no-op and the object
		// can adopt the event clock by replaying just the tick deltas:
		// O(1) at any clock width, the read-heavy steady state. Every op
		// of a batch after the first lands here by construction.
		th.deltas, ticks = core.TickCovered(tv, thrIdx, objIdx, th.deltas)
		o.clock.Apply(th.deltas[start:])
	} else {
		if o.clock == nil {
			o.clock = vclock.NewFlat(0)
		}
		// The thread absorbs the object's last full clock, ticks the
		// covered endpoints, and the object re-absorbs the result — the
		// same core.UpdateRule the offline clock runs, with the changes
		// captured into the thread's arena instead of flattened.
		th.deltas, ticks = core.UpdateRuleDelta(tv, o.clock, thrIdx, objIdx, width, th.deltas)
	}
	o.ver++
	th.lastObj, th.lastVer = o, o.ver

	e := event.Event{Index: idx, Thread: th.id, Object: o.id, Op: op}
	if ticks == 0 {
		// The event's edge is not covered, which would indicate a tracker
		// bug. Record the misuse for Err instead of panicking.
		t.noteErr(fmt.Errorf("track: event %d %v not covered by components %v",
			idx, e, t.cover.Load().ComponentsString()))
	}
	th.buf = append(th.buf, record{ev: e, start: start, end: len(th.deltas), width: int32(width), ticks: uint8(ticks)})
	if th.cellsUsed == len(th.cells) {
		th.cells = make([]stampCell, cellChunkSize)
		th.cellsUsed = 0
	}
	cell := &th.cells[th.cellsUsed]
	th.cellsUsed++
	cell.t, cell.idx = t, idx
	return Stamped{Event: e, Epoch: t.epoch, cell: cell}
}

// noteErr retains the first clock misuse.
func (t *Tracker) noteErr(err error) {
	t.errMu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.errMu.Unlock()
}

// swapLocked is the barrier half of a merge: it moves every thread's
// record buffer and delta arena, as they stand, into a new tail generation
// for [merged length, seq) and hands each thread its spares in their place.
// No record is touched, so the pause is O(threads) however much was
// committed; the trace order and checkpoints are built by the weave
// (weaveTo), outside the barrier. The caller holds the world write lock, so
// no commit is in flight and the indices below seq are all present exactly
// once.
func (t *Tracker) swapLocked() {
	first, end := t.mergedLenLocked(), int(t.seq.Load())
	if end <= first {
		return
	}
	g := &tailBlock{start: first, end: end, epoch: t.epoch}
	t.reg.Lock()
	n := 0
	for _, th := range t.threads {
		if len(th.buf) > 0 {
			n++
		}
	}
	g.thr = make([]genThread, 0, n)
	for _, th := range t.threads {
		if len(th.buf) == 0 {
			continue
		}
		g.thr = append(g.thr, genThread{th: th, id: th.id, recs: th.buf, deltas: th.deltas, prev: th.last, before: th.merged})
		th.last = th.buf[len(th.buf)-1].ev.Index
		th.merged += len(th.buf)
		th.buf, th.deltas = th.spareBuf, th.spareDeltas
		th.spareBuf, th.spareDeltas = nil, nil
	}
	t.reg.Unlock()
	t.tail = append(t.tail, g)
	t.pendMu.Lock()
	t.pending = append(t.pending, g)
	t.pendMu.Unlock()
}

// weaveTo finishes the merge of every record below end: it weaves the
// pending generations, oldest first, until one reaches end. Whoever needs a
// generation first — its seal, a Stream, a lazy stamp — weaves it, and the
// rest wait on mergeMu; commits never do, since no lock of theirs is held.
// When weaveTo returns, the generations below end are immutable and
// visible to the caller. The caller must have swapped past end.
func (t *Tracker) weaveTo(end int) {
	if int(t.woven.Load()) >= end {
		return
	}
	t.mergeMu.Lock()
	defer t.mergeMu.Unlock()
	for int(t.woven.Load()) < end {
		t.pendMu.Lock()
		if len(t.pending) == 0 {
			t.pendMu.Unlock()
			return
		}
		g := t.pending[0]
		t.pending[0] = nil
		t.pending = t.pending[1:]
		t.pendMu.Unlock()
		t.weave(g)
		t.woven.Store(int64(g.end))
	}
}

// weave builds generation g's trace order and its checkpoints, by
// advancing each thread's run vector over the thread's change sets and
// copying it out every stampCheckpointEvery records. Per record that is
// O(changed components), plus one O(k) copy per checkpoint. The caller
// holds mergeMu. A seal weaves the generations it consumes itself
// (encodeSeal), filling the checkpoints from its log writer instead.
func (t *Tracker) weave(g *tailBlock) {
	t.weaveOrder(g)
	g.weaveStamps(g.start)
}

// weaveOrder builds generation g's trace order — indices are dense, so each
// record goes straight to its slot, no sort — and readies its checkpoint
// storage: each thread entry's ckpts is an empty window of a header slice
// sized up front, filled in record order by weaveStamps or by a seal's
// writer, and the slab the vectors are copied into is sized for all of
// them. Both come from the buffers a consumed generation handed back when
// those are large enough. No stamp is touched. The caller holds mergeMu.
func (t *Tracker) weaveOrder(g *tailBlock) {
	nck, words := 0, 0
	for k := range g.thr {
		gt := &g.thr[k]
		n := gt.ckptsBelow(len(gt.recs))
		nck += n
		// A thread's widths only grow within an epoch, so its run vector is
		// never wider than this across the generation.
		words += n * max(len(gt.th.run), int(gt.recs[len(gt.recs)-1].width))
	}
	t.reg.Lock()
	b := t.spareWeave
	t.spareWeave = weaveBufs{}
	t.reg.Unlock()
	// A fresh buffer gets an eighth of headroom: generations a run of
	// seals consumes differ a little in size, and each would otherwise
	// outgrow the one before.
	if n := g.end - g.start; cap(b.order) >= n {
		b.order = b.order[:n]
	} else {
		b.order = make([]genSlot, n, n+n/8)
	}
	if cap(b.ckpts) < nck {
		b.ckpts = make([]vclock.Vector, nck+nck/8)
	}
	if cap(b.slab) < words {
		b.slab = make([]uint64, 0, words+words/8)
	}
	// Clear the recycled headers: one left pointing into an outgrown slab
	// would keep it alive.
	b.ckpts, b.slab = b.ckpts[:cap(b.ckpts)], b.slab[:0]
	clear(b.ckpts)
	g.bufs, g.order = b, b.order
	filled, first := 0, 0
	for k := range g.thr {
		gt := &g.thr[k]
		n := gt.ckptsBelow(len(gt.recs))
		gt.ckpts = b.ckpts[first : first : first+n]
		first += n
		for p, r := range gt.recs {
			if slot := r.ev.Index - g.start; slot >= 0 && slot < len(g.order) {
				g.order[slot] = genSlot{
					thr: int32(k), pos: int32(p),
					start: int32(r.start), end: int32(r.end), width: r.width,
					object: int32(r.ev.Object), opTicks: int32(r.ev.Op)<<2 | int32(r.ticks),
				}
				filled++
			} else {
				t.noteErr(fmt.Errorf("track: merge misaligned: event %v outside the merge window [%d,%d)",
					r.ev, g.start, g.end))
			}
			g.width = max(g.width, int(r.width))
		}
	}
	if filled != len(g.order) {
		// Indices are dense by construction; a hole means lost records.
		t.noteErr(fmt.Errorf("track: merge misaligned: %d records for trace indices [%d,%d)", filled, g.start, g.end))
	}
}

// weaveStamps advances each of g's threads' run vector over its records
// with global index from on, in place, and copies it out at every
// checkpoint among them. The checkpoints of the records below from must be
// in place already. The caller holds mergeMu.
func (g *tailBlock) weaveStamps(from int) {
	for k := range g.thr {
		gt := &g.thr[k]
		th := gt.th
		for p := gt.below(from); p < len(gt.recs); p++ {
			r := &gt.recs[p]
			th.run = th.run.Apply(gt.deltas[r.start:r.end]).Grow(int(r.width))
			if gt.isCheckpoint(p) {
				g.addCheckpoint(gt, th.run, int(r.width))
			}
		}
	}
}

// recycle hands the buffers of a generation no reader holds any more back
// to their threads as spares, keeping the larger when a thread is
// offered two, and its weave buffers to the next weave likewise. It runs
// as the reclaimer's free of a generation a seal consumed, with no tracker
// lock held; reg orders it against swapLocked and weaveOrder.
func (t *Tracker) recycle(g *tailBlock) {
	t.reg.Lock()
	for i := range g.thr {
		gt := &g.thr[i]
		if th := gt.th; cap(gt.recs) > cap(th.spareBuf) {
			th.spareBuf, th.spareDeltas = gt.recs[:0], gt.deltas[:0]
		}
	}
	if cap(g.bufs.order) > cap(t.spareWeave.order) {
		t.spareWeave = g.bufs
	}
	t.reg.Unlock()
}

// mergedLenLocked is the number of records in ordered history (sealed +
// tail); under the write lock after a merge it equals the event count.
func (t *Tracker) mergedLenLocked() int {
	if n := len(t.tail); n > 0 {
		return t.tail[n-1].end
	}
	return t.tailStart
}

// committedLocked is the number of committed records: the merged length
// once the per-thread buffers are swapped into the tail. The caller holds
// the world write lock, so no commit is in flight and every index below it
// is recorded.
func (t *Tracker) committedLocked() int { return int(t.seq.Load()) }

// basesLocked snapshots every registered thread's base — the per-thread
// stamps as of tailStart that a replay of the tail starts from. The vectors
// are immutable, so the snapshot shares them. The caller holds the world
// write lock.
func (t *Tracker) basesLocked() []vclock.Vector {
	t.reg.Lock()
	defer t.reg.Unlock()
	bases := make([]vclock.Vector, len(t.threads))
	for i, th := range t.threads {
		bases[i] = th.base
	}
	return bases
}

// tailAtLocked locates merged tail record idx: its generation and, once
// woven, its slot there. The caller holds the world write lock and has
// checked idx against the tail's range.
func (t *Tracker) tailAtLocked(idx int) (*tailBlock, genSlot) {
	i := sort.Search(len(t.tail), func(i int) bool { return t.tail[i].start > idx }) - 1
	if i < 0 || idx >= t.tail[i].end {
		return nil, genSlot{}
	}
	g := t.tail[i]
	return g, g.order[idx-g.start]
}

// stampAt returns the (internal) stamp of event idx — the lazy
// materialization path behind Stamped. A sealed stamp is rebuilt from its
// segment with no barrier at all (sealedStamp); a tail stamp takes the
// barrier, merges, and replays at most stampCheckpointEvery change sets of
// its thread (tailStampLocked). Either way the caller's stampCell memoizes.
func (t *Tracker) stampAt(idx int) vclock.Vector {
	if idx >= int(t.sealed.Load()) {
		if v, ok := t.tailStamp(idx); ok {
			return v
		}
		// Sealed between the check and the barrier: read it back below.
	}
	v, err := t.sealedStamp(idx)
	if err != nil {
		t.noteErr(fmt.Errorf("track: materializing sealed stamp %d: %w", idx, err))
		return nil
	}
	return v
}

// tailStamp quiesces the tracker, merges, and rebuilds tail stamp idx; ok
// is false when idx turned out to be sealed already. A record whose
// generation is swapped but not woven yet — a seal between its barriers
// may be about to weave it — is woven here, with the barrier lifted, and
// the stamp read under a second one.
func (t *Tracker) tailStamp(idx int) (v vclock.Vector, ok bool) {
	t.world.Lock()
	t.swapLocked()
	if idx >= int(t.woven.Load()) {
		end := t.mergedLenLocked()
		t.world.Unlock()
		t.weaveTo(end)
		t.world.Lock()
	}
	defer t.world.Unlock()
	if idx < t.tailStart {
		return nil, false
	}
	return t.tailStampLocked(idx), true
}

// tailStampLocked rebuilds merged tail stamp idx: it walks back along the
// thread's records — within a generation by position, across generations
// by each thread entry's prev link — to the nearest full-stamp checkpoint,
// or, past the tail's start, to the thread's base at tailStart, and replays
// the change sets forward from there. A checkpoint on a sealed record of a
// cut generation's remainder still starts a valid replay: the records
// between it and idx are all still in the shared buffers. The walk stops within
// stampCheckpointEvery records, so the cost is bounded whatever the tail's
// length. The caller holds the world write lock, and idx is woven.
func (t *Tracker) tailStampLocked(idx int) vclock.Vector {
	g, sl := t.tailAtLocked(idx)
	if g == nil {
		// Unreachable for cells minted by commit; guard against decay.
		return nil
	}
	// spans[i] is records lo..hi of one thread entry, newest span first.
	type span struct {
		gt     *genThread
		lo, hi int
	}
	var spans [stampCheckpointEvery]span
	n := 0
	gt, p := &g.thr[sl.thr], int(sl.pos)
	var from vclock.Vector
	for {
		if c, v := gt.checkpoint(p); v != nil {
			from = v
			spans[n] = span{gt, c + 1, p}
			n++
			break
		}
		spans[n] = span{gt, gt.off, p}
		n++
		// A remainder's sealed records end right below tailStart, so the
		// thread's base is their successor's starting point.
		if gt.off > 0 || gt.prev < t.tailStart {
			from = gt.th.base
			break
		}
		g, sl = t.tailAtLocked(gt.prev)
		gt, p = &g.thr[sl.thr], int(sl.pos)
	}
	v := from.Clone()
	for n--; n >= 0; n-- {
		sp := spans[n]
		for _, r := range sp.gt.recs[sp.lo : sp.hi+1] {
			v = v.Apply(sp.gt.deltas[r.start:r.end]).Grow(int(r.width))
		}
	}
	return v
}

// Size returns the current vector-clock size (number of components). The
// atomic cover pointer makes this safe — and usable from inside a Do
// callback — even while a concurrent Compact swaps the cover.
func (t *Tracker) Size() int { return t.cover.Load().Size() }

// Components returns the current component set as a copy.
func (t *Tracker) Components() []core.Component { return t.cover.Load().Components() }

// Events returns the number of recorded operations.
func (t *Tracker) Events() int { return int(t.seq.Load()) }

// RetainedEvents returns the retention floor: the smallest trace index whose
// event is still replayable. Zero until a RetainPolicy pass retires
// segments; events below the floor are gone from Stream/Snapshot output and
// their lazy stamps materialize as nil. Lock-free — one snapshot load.
func (t *Tracker) RetainedEvents() int {
	return t.hist.Load().retained
}

// Threads returns the registered threads in registration order (index is
// the dense ThreadID). After Open, this is how a resuming process reattaches
// to the threads the previous run registered — registering the same names
// again would mint fresh IDs.
func (t *Tracker) Threads() []*Thread {
	t.reg.Lock()
	defer t.reg.Unlock()
	return append([]*Thread(nil), t.threads...)
}

// Objects returns the registered objects in registration order (index is
// the dense ObjectID); see Threads.
func (t *Tracker) Objects() []*Object {
	t.reg.Lock()
	defer t.reg.Unlock()
	return append([]*Object(nil), t.objects...)
}

// Recovery reports what Open reconstructed from its directory — the resumed
// event count and epoch, quarantined files, whether the previous run closed
// cleanly. Nil for in-memory trackers (Open with an empty dir).
func (t *Tracker) Recovery() *RecoveryInfo { return t.recovery }

// Snapshot quiesces the tracker and returns a copy of the recorded
// computation together with its timestamps (indexed by event index). It is
// a materializing sink over the same segment-stream path Stream and
// SnapshotTo use: sealed history is replayed from its delta segments
// (reading spill files back if the tracker spills), the tail is cloned out.
// For bulk export, prefer SnapshotTo, which never builds the []Vector at
// all. A segment I/O failure (a spill file deleted underneath the tracker)
// surfaces through Err, with the readable prefix returned.
func (t *Tracker) Snapshot() (*event.Trace, []vclock.Vector) {
	sink := &collectSink{trace: event.NewTrace()}
	if err := t.Stream(sink); err != nil {
		t.noteErr(fmt.Errorf("track: snapshot: %w", err))
	}
	return sink.trace, sink.stamps
}

// Err surfaces tracker failures: clock misuse (an uncovered event, which
// would indicate a tracker bug) and segment I/O errors from sealing,
// spilling or re-reading spilled history. Always nil in correct operation
// on intact storage; the first error from any epoch is retained.
func (t *Tracker) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.firstErr
}
