package mixedclock

import (
	"io"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/track"
	"mixedclock/internal/vclock"
)

// Re-exported model types. The library's packages live under internal/; the
// aliases below form the supported public surface.
type (
	// Event is one operation: Thread performed Op on Object.
	Event = event.Event
	// ThreadID identifies a thread (dense, 0-based).
	ThreadID = event.ThreadID
	// ObjectID identifies a shared object (dense, 0-based).
	ObjectID = event.ObjectID
	// Op distinguishes reads from writes (writes by default).
	Op = event.Op
	// Trace is an ordered computation.
	Trace = event.Trace

	// Vector is a growable vector timestamp.
	Vector = vclock.Vector
	// Ordering is the result of comparing two timestamps.
	Ordering = vclock.Ordering

	// Graph is the thread–object bipartite graph of a computation.
	Graph = bipartite.Graph

	// Component is one mixed-clock coordinate: a thread or an object.
	Component = core.Component
	// ComponentSet is an append-only ordered set of components.
	ComponentSet = core.ComponentSet
	// Analysis is the offline algorithm's result: graph, maximum matching,
	// minimum vertex cover, and optimal components.
	Analysis = core.Analysis
	// MixedClock timestamps events over a fixed component set.
	MixedClock = core.MixedClock
	// OnlineClock grows its component set as events reveal new edges.
	OnlineClock = core.OnlineMixedClock
	// Mechanism chooses components in the online setting.
	Mechanism = core.Mechanism
	// NaiveThreads always picks the thread (classical thread clock).
	NaiveThreads = core.NaiveThreads
	// NaiveObjects always picks the object (classical object clock).
	NaiveObjects = core.NaiveObjects
	// Random picks a side uniformly at random.
	Random = core.Random
	// Popularity picks the endpoint with higher degree/|E|.
	Popularity = core.Popularity
	// Hybrid starts with Popularity and falls back to Naive past
	// density/size thresholds, per the paper's conclusion.
	Hybrid = core.Hybrid

	// Timestamper is the interface all clock schemes implement.
	Timestamper = clock.Timestamper

	// Tracker coordinates live causality tracking across goroutines.
	Tracker = track.Tracker
	// Thread is a registered logical thread (one per goroutine).
	Thread = track.Thread
	// Object is a registered, lock-protected shared object.
	Object = track.Object
	// Stamped is a recorded operation with its timestamp.
	Stamped = track.Stamped
	// Batch accumulates operations by one thread across any objects and
	// commits them in one call, paying the per-commit synchronization once
	// per same-object run instead of once per operation; see
	// Thread.NewBatch, Thread.DoBatch.
	Batch = track.Batch
	// TrackerOption configures Open.
	TrackerOption = track.Option
	// SpillPolicy bounds a long-running tracker's memory: when the merged
	// tail is sealed into immutable delta-encoded segments (spilled to
	// Open's directory, if any).
	SpillPolicy = track.SpillPolicy
	// SegmentInfo describes one sealed segment (epoch, index range, size,
	// spill file, content hash), as reported by Tracker.Segments.
	SegmentInfo = track.SegmentInfo
	// CompactPolicy is the tiered segment-compaction knob set: how many
	// sealed segments to tolerate and the size ceiling of a merged tier.
	CompactPolicy = track.CompactPolicy
	// RetainPolicy retires graduated (closed-epoch) segments by age or
	// total byte budget, optionally archiving them instead of deleting.
	RetainPolicy = track.RetainPolicy
	// Store is a tracker's complete storage configuration — spilling,
	// compaction and retention in one validated struct; see WithStore.
	Store = track.Store
	// RecoveryInfo reports what Open reconstructed from a directory:
	// resumed epoch and index, retention floor, quarantined files, whether
	// the previous run closed cleanly. See Tracker.Recovery.
	RecoveryInfo = track.RecoveryInfo
	// Health is a point-in-time report of a tracker's storage health —
	// whether a persistent spill failure has it running degraded (fully in
	// memory), since when, and how much history is unsealed. See
	// Tracker.Health and the "Failure model and degraded operation"
	// section above.
	Health = track.Health
	// TrackerStats is a point-in-time lifecycle summary of a tracker:
	// committed/sealed/retained event counts, clock width, sealed-history
	// shape, and the cumulative seal/compaction/retention
	// totals. See Tracker.Stats; `mvc spam` reports one per run.
	TrackerStats = track.TrackerStats
	// Shipper incrementally copies a spill directory's sealed, published
	// history to a mirror directory, resuming from a durable cursor.
	Shipper = track.Shipper
	// ShipReport summarizes one Shipper.ConsumeUpTo pass.
	ShipReport = track.ShipReport
	// Catalog is the read-only, JSON-serializable view of sealed history
	// that external log shippers poll; see Tracker.Catalog.
	Catalog = tlog.Catalog
	// CatalogSegment is one sealed segment as the catalog describes it.
	CatalogSegment = tlog.CatalogSegment
	// StampSink consumes a streamed computation record by record; see
	// Tracker.Stream.
	StampSink = track.StampSink
)

// Ordering values returned by Vector.Compare.
const (
	Equal      = vclock.Equal
	Before     = vclock.Before
	After      = vclock.After
	Concurrent = vclock.Concurrent
)

// Operation kinds.
const (
	OpWrite = event.OpWrite
	OpRead  = event.OpRead
)

// NewTrace returns an empty computation; use Append to add operations.
func NewTrace() *Trace { return event.NewTrace() }

// ReadTrace parses a trace from the JSON Lines format written by
// Trace.WriteJSONL.
func ReadTrace(r io.Reader) (*Trace, error) { return event.ReadJSONL(r) }

// GraphFromTrace projects a computation onto its thread–object bipartite
// graph.
func GraphFromTrace(tr *Trace) *Graph { return bipartite.FromTrace(tr) }

// Analyze runs the paper's offline algorithm (Algorithm 1) on a graph:
// maximum matching, minimum vertex cover, optimal mixed-clock components.
func Analyze(g *Graph) *Analysis { return core.Analyze(g) }

// AnalyzeTrace is Analyze on the trace's graph.
func AnalyzeTrace(tr *Trace) *Analysis { return core.AnalyzeTrace(tr) }

// NewClock returns an offline mixed clock over a fixed component set.
func NewClock(comps *ComponentSet) *MixedClock { return core.NewMixedClock(comps) }

// NewOnlineClock returns a clock that grows its components online, driven by
// the given mechanism.
func NewOnlineClock(m Mechanism) *OnlineClock { return core.NewOnlineMixedClock(m) }

// NewHybrid returns the paper's recommended online mechanism: Popularity
// while the revealed graph is small and sparse, NaiveThreads afterwards.
func NewHybrid() Hybrid { return core.NewHybrid() }

// Open returns a live tracker for goroutine-level causality tracking; it is
// the only way to build one. An empty dir keeps everything in memory. A
// non-empty dir is a durable run: an absent or empty directory starts a
// fresh tracker spilling there, an existing one is recovered — every listed
// segment verified by size and content hash, clocks and cover rebuilt, a
// torn tail quarantined — and committing resumes at the correct epoch and
// trace index. Bracket a durable run with Tracker.Close. Open validates its
// options; see Tracker.Recovery for what was reconstructed.
func Open(dir string, opts ...TrackerOption) (*Tracker, error) { return track.Open(dir, opts...) }

// WithMechanism selects the tracker's online mechanism.
func WithMechanism(m Mechanism) TrackerOption { return track.WithMechanism(m) }

// WithStore sets the tracker's complete storage configuration — the only
// storage option. Spill seals the merged tail into immutable delta-encoded
// segments every SealEvery events (spilled to Open's directory, if any, so
// a long-running tracker holds bounded memory); Compact merges adjacent
// small segments after any seal that leaves more than MaxSegments (never
// across an epoch boundary, never past TargetBytes, replay bytes
// unchanged); Retain retires graduated segments on the seal path. Sealed
// history is replayed transparently by Snapshot, Stream, SnapshotTo and
// lazy Stamped vectors. Open rejects an invalid Store.
func WithStore(s Store) TrackerOption { return track.WithStore(s) }

// ErrCatalogBehind is returned (wrapped) by Shipper.ConsumeUpTo when the
// published catalog generation is still behind the requested one.
var ErrCatalogBehind = track.ErrCatalogBehind

// ReadCatalog loads and validates a segment catalog document, as published
// by a spilling tracker to catalog.json in its spill directory.
func ReadCatalog(r io.Reader) (*Catalog, error) { return tlog.DecodeCatalog(r) }

// Run drives a timestamper over a whole trace, returning one timestamp per
// event.
func Run(tr *Trace, ts Timestamper) []Vector { return clock.Run(tr, ts) }

// Validate checks Theorem 2 exhaustively against the ground-truth
// happened-before oracle: s → t ⇔ s.V < t.V for every pair of events. Meant
// for tests and debugging (cost is quadratic in trace length).
func Validate(tr *Trace, stamps []Vector, scheme string) error {
	return clock.Validate(tr, stamps, scheme)
}

// WriteLog persists a timestamped computation in the compact binary log
// format (self-delimiting records; a truncated log stays readable up to the
// last complete record).
func WriteLog(w io.Writer, tr *Trace, stamps []Vector) error {
	return tlog.WriteAll(w, tr, stamps)
}

// WriteLogDelta persists a timestamped computation in the delta-encoded log
// format: a record whose stamp the update rule derives from its thread's
// and its object's previous stamps carries only its ticked components, and
// the others carry the components that changed against the same thread's
// previous stamp, with periodic full-vector sync points. Same truncation
// semantics as WriteLog, typically a fraction of the size on wide clocks;
// ReadLog reads either format transparently.
func WriteLogDelta(w io.Writer, tr *Trace, stamps []Vector) error {
	return tlog.WriteAllDelta(w, tr, stamps)
}

// ErrLogTruncated wraps reads of logs cut short by a crash; ReadLog returns
// it together with the readable prefix.
var ErrLogTruncated = tlog.ErrTruncated

// ReadLog loads a timestamped computation written by WriteLog or
// WriteLogDelta (the header says which format a stream carries). On
// truncation it returns the complete-record prefix along with an error
// wrapping ErrLogTruncated.
func ReadLog(r io.Reader) (*Trace, []Vector, error) {
	return tlog.ReadAll(r)
}
