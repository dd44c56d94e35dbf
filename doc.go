// Package mixedclock implements optimal mixed vector clocks for
// multithreaded systems, after Zheng & Garg, "An Optimal Vector Clock
// Algorithm for Multithreaded Systems" (ICDCS 2019).
//
// # Background
//
// A concurrent program with n threads operating on m lock-protected shared
// objects is classically timestamped with a vector clock of size n (one
// component per thread) or m (one per object). This library implements the
// paper's mixed vector clock, whose components are a mixture of threads and
// objects, and which is provably the smallest vector clock able to order the
// computation: its size equals the minimum vertex cover of the thread–object
// bipartite graph (an edge per thread–object pair that interacts), computed
// via Hopcroft–Karp maximum matching and the König–Egerváry theorem.
//
// # Offline usage
//
// When the computation is known (a recorded trace), Analyze computes the
// optimal components and a clock over them:
//
//	analysis := mixedclock.AnalyzeTrace(trace)
//	fmt.Println(analysis.Components)     // e.g. {T2, O2, O3}
//	clk := analysis.NewClock()
//	for _, e := range trace.Events() {
//		stamp := clk.Timestamp(e)
//		// stamp orders e against every other event: s → t ⇔ s.V < t.V
//	}
//
// # Online usage
//
// When events arrive one at a time, components can only be added. The §IV
// mechanisms decide whether a new edge's thread or object joins the clock:
//
//	clk := mixedclock.NewOnlineClock(mixedclock.NewHybrid())
//	stamp := clk.Timestamp(e)
//
// # Live tracking
//
// To track a real concurrent Go program, use the Tracker: goroutines are
// threads, lock-protected shared state are objects. Open is the one
// constructor; an empty directory keeps the run in memory:
//
//	tracker, err := mixedclock.Open("")
//	account := tracker.NewObject("account")
//	th := tracker.NewThread("worker-1") // one per goroutine
//	stamp := th.Write(account, func() { balance += 10 })
//
// Recorded stamps answer happened-before queries and compute recovery lines
// in internal/cut; a recorded trace drives the concurrency census and
// schedule-sensitivity report in internal/detect, in linear time.
//
// The tracker's hot path is sharded rather than globally locked: each
// Thread owns its clock and record buffer, each Object's lock protects that
// object's last-writer clock (the stripe all cross-thread causality flows
// through), and component discovery is read-mostly. Read operations hold
// their object's stripe shared, so reader callbacks on one object run
// concurrently with each other; writers hold it exclusively.
//
// The per-event cost is O(changed components), not O(clock width): commits
// record only the delta each operation applied to its thread's clock
// (allocation-free, at any width), and full vectors materialize lazily. A
// Stamped's Vector() — and its comparison helpers — reconstruct the
// timestamp on first use and memoize; bulk consumers should take one
// snapshot instead:
//
//	trace, stamps := tracker.Snapshot() // one barrier, consistent pair
//
// Snapshot, Seal and Compact are stop-the-world barriers that quiesce
// in-flight operations and swap the per-thread delta records out into the
// tail, as they are — the barrier costs O(threads), and the records are put
// in trace order after it lifts. The tail keeps change sets, not stamps:
// full vectors are rebuilt only where a reader asks for one, and a lazy
// stamp still in the tail replays at most 64 change sets from its thread's
// nearest checkpoint. See the internal/track package documentation for
// the full concurrency model.
//
// High-rate producers can amortize the remaining per-event cost — one
// object-stripe acquisition, one world read-lock shard, one cover lookup,
// one trace-index fetch — across whole runs of operations:
//
//	stamps := th.DoBatch(account, ops) // one object, one synchronization round-trip
//	b := th.NewBatch()
//	b.Write(account).Read(ledger).Write(account)
//	stamps = b.Commit() // mixed objects, one round-trip per same-object run
//
// DoBatch returns the thread's own buffer, valid until the thread's next
// DoBatch, and Commit the batch's own, valid until the batch's next Commit,
// so a producer reusing either allocates nothing per commit; copy the
// stamps to keep them longer.
//
// A batch claims its whole contiguous trace-index range while holding the
// object's commit exclusion, so index order remains a linearization of
// happened-before, every operation of a batch lands in one epoch, and the
// stamps are identical — events, epochs, timestamps — to the equivalent
// loop of Do calls. Batching is purely an amortization, never a semantic
// knob; `mvc export -live -batch N` and the longrunning example expose it
// from the command line.
//
// Internally, the structures read without locks — the component cover, the
// sealed-segment list — are published copy-on-write behind atomic pointers.
// A cover generation is plain immutable memory, so a commit reads it with
// no pin at all; superseded segment lists and replaced spill files wait on
// an epoch-based limbo list (internal/track's reclaimer) until every
// sealed replay has passed, so cover growth, segment compaction and
// retention never stop the world. Only the operations that must observe
// ALL threads at one instant — Snapshot, Seal, Compact — still barrier,
// and Seal only twice, for a pause that does not grow with the records it
// seals: once to swap the per-thread buffers out, once to publish the
// segment. Its interleave into trace order, encode, SHA-256 and spill
// (write, fsync, rename) run while commits continue — Stats reports the
// barriers' hold — and a lazy stamp of a sealed event reads its segment
// with no barrier at all.
//
// Automatic seals, and the compaction and retention passes that follow
// them, do not run on the committing goroutine at all. The commit that
// crosses a SpillPolicy.SealEvery boundary only starts a lifecycle worker
// goroutine, which seals and publishes while every thread keeps
// committing; it exits once nothing is due, so an idle tracker holds no
// goroutine. A commit waits only when four SealEvery intervals or more are
// unsealed — backpressure that bounds memory — and never while sealing is
// disarmed by a spill failure. Seal, Compact and Close stay synchronous.
//
// # Segments, spilling and streaming
//
// The canonical representation of a tracked run is the delta stream, end to
// end. History the tracker has merged is sealed — at Compact, at an
// explicit Seal, or automatically under a spill policy — into immutable,
// delta-encoded segments (the same wire format the logs use), and the
// store's spill policy moves sealed segments to disk so a long-running
// tracker holds bounded memory however many events it records. A spilling
// run is Open on a directory with a Store (see "Durability and recovery"
// below); Open("") with the same Store seals in memory instead:
//
//	tracker, err := mixedclock.Open(dir, mixedclock.WithStore(mixedclock.Store{
//		Spill: mixedclock.SpillPolicy{SealEvery: 100_000},
//	}))
//
// Sealing is invisible to every reader: Snapshot, Stamped comparisons and
// epoch queries replay spilled segments transparently (Tracker.Segments
// lists them; the mvc CLI's segments command inspects and merges the spill
// files). Bulk export never materializes a vector table at all:
//
//	err := tracker.SnapshotTo(w) // delta log, O(1) memory w.r.t. run length
//
// streams sealed segments and the live tail straight into the delta log
// writer — byte-identical to materializing a Snapshot and writing it with
// WriteLogDelta, at a fraction of the cost (BenchmarkSnapshotStream locks
// the allocation profile in). Custom consumers implement StampSink and use
// Tracker.Stream, which delivers the whole computation in trace order
// without ever running the sink under the stop-the-world barrier: the
// merged tail is double-buffered, so Stream freezes it under a short
// barrier and replays the frozen half while commits continue into the
// fresh one (BenchmarkStreamTail).
//
// # Segment lifecycle: compaction and the catalog
//
// Frequent seals produce many small segments; the lifecycle manager keeps
// them operable. Tiered compaction merges runs of adjacent small segments
// (never across an epoch boundary, never past CompactPolicy.TargetBytes)
// into larger ones with replay bytes unchanged — arm it through
// Store.Compact, run a pass explicitly with Tracker.CompactSegments, or
// compact a retired spill directory offline with `mvc compact`, which is
// that same pass run between Open and Close, so its writes are the store's
// crash-safe ones and it needs the directory's catalog. Seal
// boundaries are aligned to multiples of SpillPolicy.SealEvery, one
// interval per segment, and can be wall-time capped
// (SpillPolicy.SealInterval), so segment edges line up with retention
// wants. Automatic compaction and retention passes run on their own
// worker, one per seal and in seal order, each planned over the sealed
// history as of its seal, so their outcome does not depend on how far
// they lag behind the seals.
//
// External log shippers poll the Catalog — epoch, index range, size, spill
// file and SHA-256 per segment, plus tracker health — via Tracker.Catalog
// or, with a spill directory, the catalog.json the tracker rewrites
// atomically after every seal and compaction (readable with ReadCatalog or
// `mvc catalog`). Spill failures surface there too: auto-sealing disarms
// after one failed seal, Err and the catalog carry the cause, and a
// successful explicit Seal or Compact re-arms it.
//
// # Durability and recovery
//
// A spill directory is not just overflow space — it is a durable run. Open
// and Close bracket one:
//
//	tracker, err := mixedclock.Open(dir,
//		mixedclock.WithStore(mixedclock.Store{
//			Spill:  mixedclock.SpillPolicy{SealEvery: 100_000},
//			Retain: mixedclock.RetainPolicy{MaxBytes: 1 << 30},
//		}))
//	defer tracker.Close()
//
// An absent or empty directory starts a fresh run; an existing one —
// whether the previous run ended in Close or in a crash — is recovered:
// every listed segment is verified by size and SHA-256, the per-thread and
// per-object clocks, component cover and epoch bookkeeping are rebuilt from
// the catalog's resume manifest plus a replay of the current epoch, and
// committing resumes at the next trace index. Tracker.Recovery reports what
// was reconstructed; Threads and Objects reattach to the registered handles.
//
// The crash-consistency contract: what survives is exactly the last
// published catalog generation and the immutable segments it lists; what is
// lost is the unsealed suffix. Damage never panics and never fails the Open
// — a torn catalog.json falls back to the previous generation, a truncated
// or bit-flipped segment tail and any orphan spill files are quarantined
// (renamed aside, never deleted), and the loss is reported through Recovery
// and Err. Close seals the tail, publishes a final generation marked
// closed, and fsyncs the directory; `mvc recover -dir` performs the same
// reopen from the command line and prints the report.
//
// Store gathers every storage policy — spilling, tiered compaction,
// retention — into one validated struct, set with WithStore, the only
// storage option. A RetainPolicy retires
// graduated segments, i.e. those of closed epochs, once they age past
// MaxAge or push the directory over MaxBytes — deleting them or, with
// Archive set, moving them aside — and replay then starts at the retention
// floor the catalog records. A Shipper incrementally mirrors the published
// history to another directory with a durable cursor (ConsumeUpTo), and the
// mirror is itself a valid run directory: Open replays it byte-identically.
//
// # Failure model and degraded operation
//
// Every durable operation — sealing a segment, publishing the catalog,
// compaction, retention, shipping, recovery — runs through a small
// filesystem interface (Store.FS; the real filesystem by default), so the
// whole failure surface is injectable and deterministically tested: an
// exhaustive sweep crashes the store at every single durable operation
// index and proves recovery at each one (internal/track/crashtest). The
// commit hot path never touches the filesystem, so tracking performance is
// independent of all of this.
//
// Failures are handled in three tiers:
//
//   - Transient errors (an EIO blip, a failed fsync or rename) retry a few
//     times with bounded backoff. The retried unit is always a whole
//     idempotent cycle that rewrites its data from memory — never a bare
//     fsync retry, which is unsound on filesystems that drop dirty pages on
//     fsync failure.
//   - Persistent failures (ENOSPC, permissions, a vanished directory)
//     escalate immediately: the tracker enters degraded mode. Commits,
//     snapshots, streams, monitors and detection all keep working, fully in
//     memory; auto-sealing disarms (one failed seal, not one per commit),
//     backpressure is off, nothing new reaches disk, and the unsealed
//     suffix grows without bound — the price of staying live. Tracker.Health reports the
//     state (and since when); the published catalog carries the same facts
//     for external observers.
//   - Recovery: while degraded, the tracker probes the spill directory with
//     a throwaway durable write at most once per SpillPolicy.Probe
//     (default one second). Commits only check whether a probe is due and
//     start the lifecycle worker, which runs it, so an idle tracker does
//     not spin. A successful probe re-arms sealing; the worker's next seals
//     flush the accumulated tail, clear degraded mode, and publish a
//     healthy catalog generation.
//
// What degraded mode never does: lose committed history silently (it is all
// in memory and seals as soon as the disk returns), block or fail commits,
// or corrupt the directory — everything on disk stays exactly the
// crash-consistent state the last successful publication left.
//
// # Choosing a backend
//
// The mixed clock minimizes how many components a timestamp carries; the
// clock backend decides how much work each operation does over them. Two
// representations are available to the offline clocks, selected per clock:
//
//	clk := analysis.NewClockBackend(mixedclock.Tree)
//	online := mixedclock.NewOnlineClockBackend(mixedclock.NewHybrid(), mixedclock.Tree)
//
// Flat (the default) stores a []uint64 and pays O(k) per join, with minimal
// constants — the right choice for narrow clocks and for workloads whose
// joins genuinely touch most components. Tree is the tree clock of Mathur,
// Tunç, Pavlogiannis & Viswanathan (PLDI 2022) adapted to the mixed
// component space: it remembers how values were learned and skips
// already-dominated subtrees during joins, so re-acquiring an object you
// already dominate, deep join chains, and read-mostly phases cost only as
// much as the components that actually changed. Both backends produce
// identical timestamps (a property the test suite asserts exhaustively), and
// both serialize to the same flat wire form, so logs and comparisons are
// backend-agnostic. See BenchmarkBackends for head-to-head numbers per
// workload shape. Auto picks a backend from the analyzed width and join
// shape.
//
// A Tracker always keeps flat vectors: its delta capture and same-object
// fast path already skip the redundant join work a tree clock saves, and
// the tree clock measured slower on every benchmark workload.
//
// # Online detection
//
// The analyses above also run incrementally, over the live stream, through
// a Monitor registered on a running tracker:
//
//	m := tracker.NewMonitor(mixedclock.MonitorPolicy{Window: 1 << 16})
//	m.WatchOrder("credit-after-debit", isDebitWrite, isCreditWrite)
//	m.WatchPossibly("invariant-broken", pred)
//
// Every seal wakes the monitor, which evaluates the newly sealed segments
// through the same lock-free replay path Stream uses for sealed history —
// commits continue while it works, so monitoring never extends a
// stop-the-world window — and Monitor.Sync catches it up with the unsealed
// tail on demand. The monitor maintains a streaming concurrency census, an
// exact schedule-sensitive pair scanner, a happened-before index over the
// last Window events, the registered order and predicate watches, and an
// incremental König lower bound on the optimal clock width; detections
// carry epoch and trace-index provenance, and the first order violation
// arms an online recovery line. The same detection attaches to a run from
// outside the process via its spill directory: `mvc detect -live -dir DIR`
// follows the published catalog and evaluates sealed segments as they
// land. See the internal/track package documentation for the windowing
// guarantees (what stays exact, what becomes sound-but-bounded).
//
// # Load generation and headline numbers
//
// The repo ships its own throughput harness: `mvc spam` runs a warmup
// phase and then a timed or fixed-op-count mixed read/write phase against
// a live Tracker — configurable worker count, object count, read fraction,
// uniform or zipf object choice, per-event Do or batched commits, an
// optional durable Store and an optional online Monitor riding the run —
// and reports mops/sec, log-linear-histogram latency percentiles,
// allocation rates and the tracker's final TrackerStats (clock width,
// seals, compaction and retention totals). Runs are deterministic under
// -seed with -ops; the JSON/CSV formats are stable for scripting, and the
// same engine backs the end-to-end BenchmarkLoadgenMixed in the CI
// regression gate. `mvc gen` writes the synthetic JSONL traces the
// analysis commands read. cmd/figures regenerates the paper's §V
// evaluation with the cover simulator, which a test holds equal, point for
// point, to a live Tracker, plus a batch × read-ratio throughput sweep.
//
// # Persistence
//
// WriteLog stores a timestamped computation with one full vector per event;
// WriteLogDelta (format MVCLOG03) stores, per event whose thread and object
// have both appeared, only which components its tick raised — the stamp is
// derived as tick(join) of the thread's and the object's previous stamps,
// and a tick the thread's or the object's previous record also made costs
// a bit in the record's header byte, as does an object that is the
// thread's previous one — and for the rest the components that changed
// against the same thread's previous stamp (with periodic full-vector sync
// points), so a log costs about four bytes per event whatever the clock
// width. Every format tolerates truncation, and ReadLog auto-detects which
// one a stream carries, the older MVCLOG02 delta logs included.
package mixedclock
