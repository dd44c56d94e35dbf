package track

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"time"

	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/vclock"
	"mixedclock/internal/vfs"
)

// SpillPolicy bounds a long-running tracker's memory: how often the merged
// tail is sealed into an immutable delta-encoded segment. Where sealed
// segments go is Open's directory: there, each is spilled to its own
// "seg-<first>-<last>.mvcseg" file and dropped from memory (everything that
// replays it — Stream, Snapshot, lazy Stamped.Vector of an old event —
// reads the file back), and a catalog.json is kept for external log
// shippers (see Tracker.Catalog). Without a directory, sealed segments stay
// in memory in their delta-encoded form. The zero policy never seals on its
// own.
type SpillPolicy struct {
	// SealEvery, when positive, seals automatically at every multiple of
	// SealEvery events: the tail is sealed up to the largest such boundary,
	// and any overshoot (commits keep flowing while the seal is pending)
	// stays in the tail for the next one. A single committing goroutine
	// therefore never leaves SealEvery or more events unsealed (live
	// per-thread buffers plus the merged tail), and segment edges land at
	// predictable indices — retention jobs and snapshot consumers can
	// reason in whole intervals. Sealing is a stop-the-world barrier, so
	// this trades a periodic pause — proportional to SealEvery, like any
	// snapshot — for a bounded in-memory suffix. Zero seals only at
	// Compact, an explicit Seal, or SealInterval.
	//
	// If an automatic seal fails (spill I/O), the error surfaces through
	// Err and the catalog health field, the history stays in memory, and
	// auto-sealing disarms until an explicit Seal or Compact succeeds (or a
	// Probe re-arms it) — one failed barrier, not one per commit.
	SealEvery int
	// SealInterval, when positive, also triggers a seal once this much wall
	// time has passed since the last one, bounding how stale the sealed
	// history (and the catalog shippers poll) can go under light traffic.
	// The clock is checked on the commit path, so an entirely idle tracker
	// does not seal on its own. When SealEvery is also set and a full
	// interval is pending, the boundary stays aligned; otherwise the whole
	// tail is flushed.
	SealInterval time.Duration
	// Probe is how often a tracker in degraded mode (auto-sealing disarmed
	// by a persistent spill failure) probes the spill directory with a
	// throwaway durable write; a successful probe re-arms sealing. Zero
	// means a one-second default. The probe runs on the commit path but
	// only while degraded, at most once per interval, behind one CAS.
	Probe time.Duration
}

// autoSealDue is the cheap post-commit check: committed and sealedUpTo are
// the tracker's event and sealed counters, lastSealNano the last successful
// seal time.
func (p SpillPolicy) autoSealDue(committed, sealedUpTo, lastSealNano int64) bool {
	if committed <= sealedUpTo {
		return false
	}
	if p.SealEvery > 0 && committed/int64(p.SealEvery)*int64(p.SealEvery) > sealedUpTo {
		return true
	}
	if p.SealInterval > 0 && time.Now().UnixNano()-lastSealNano >= int64(p.SealInterval) {
		return true
	}
	return false
}

// segment is one sealed, immutable slice of history: meta plus either the
// container bytes in memory or the spill file they were written to, the
// container size, and the container's SHA-256 (hex) for the catalog.
//
// A spilled segment is addressed as dir + file, never as one joined path:
// the catalog stores only the file name, so a spill directory stays valid
// when moved or mounted elsewhere — Open joins the names against whatever
// directory it was given.
type segment struct {
	meta tlog.SegmentMeta
	data []byte // in-memory container; nil when spilled
	dir  string // spill directory; "" when in memory
	file string // spill file name within dir; "" when in memory
	fs   vfs.FS // filesystem the spill file is read through; nil = vfs.OS
	size int64
	sha  string
	// sealedAt is when the segment was sealed — RetainPolicy.MaxAge's
	// clock. Restored from the catalog on reopen; zero when unknown.
	sealedAt time.Time
}

// path returns the segment's spill file path, empty for in-memory segments.
func (sg *segment) path() string {
	if sg.file == "" {
		return ""
	}
	return filepath.Join(sg.dir, sg.file)
}

// open returns the segment's container bytes as a stream.
func (sg *segment) open() (io.ReadCloser, error) {
	if sg.file == "" {
		return io.NopCloser(bytes.NewReader(sg.data)), nil
	}
	fsys := sg.fs
	if fsys == nil {
		fsys = vfs.OS
	}
	return fsys.Open(sg.path())
}

// streamFrom replays the segment's records with global index in [from, to)
// into sink (to < 0 means no upper bound) and returns how many records it
// delivered. Records below from are decoded but not delivered — the delta
// payload only decodes front to back. The borrowed vectors are handed
// straight through, so a replay allocates only the reader state,
// independent of the record count. An error opening the container is
// returned as errSegmentVanished-wrapped so Stream can distinguish a spill
// file retired by a concurrent compaction from a sink failure.
func (sg *segment) streamFrom(sink StampSink, from, to int) (int, error) {
	rc, err := sg.open()
	if err != nil {
		return 0, fmt.Errorf("track: opening segment %v: %w (%w)", sg.meta, err, errSegmentVanished)
	}
	defer rc.Close()
	sr, err := tlog.NewSegmentReader(rc)
	if err != nil {
		return 0, fmt.Errorf("track: segment %v: %w", sg.meta, err)
	}
	delivered := 0
	for {
		e, v, err := sr.Next()
		if err == io.EOF {
			return delivered, nil
		}
		if err != nil {
			return delivered, fmt.Errorf("track: segment %v: %w", sg.meta, err)
		}
		if e.Index < from {
			continue
		}
		if to >= 0 && e.Index >= to {
			return delivered, nil
		}
		if err := sink.ConsumeStamp(e, sg.meta.Epoch, v); err != nil {
			return delivered, err
		}
		delivered++
	}
}

// errSegmentVanished marks a segment container that could not be opened —
// either a spill file retired by a concurrent compaction (retriable against
// a fresh segment list) or one genuinely lost underneath the tracker.
var errSegmentVanished = errors.New("segment unreadable")

// stampAt replays the segment up to global index idx and returns that
// record's stamp (freshly reconstructed, owned by the caller).
func (sg *segment) stampAt(idx int) (vclock.Vector, error) {
	rc, err := sg.open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	sr, err := tlog.NewSegmentReader(rc)
	if err != nil {
		return nil, err
	}
	for {
		e, v, err := sr.Next()
		if err != nil {
			return nil, err
		}
		if e.Index == idx {
			return v, nil
		}
	}
}

// sealLocked re-encodes the tail's records below upTo as one immutable
// segment, appends it to the sealed history, and spills it to disk when the
// policy says so. upTo == mergedLenLocked() seals everything (what Seal and
// Compact do); an aligned auto-seal passes the interval boundary and the
// overshoot stays in the tail. The caller holds the world write lock and
// has merged. On error (segment encoding, spill I/O) the tail is left
// untouched, so no history is lost — the tracker just keeps it in memory.
func (t *Tracker) sealLocked(upTo int) error {
	if merged := t.mergedLenLocked(); upTo > merged {
		upTo = merged
	}
	if upTo <= t.tailStart {
		return nil
	}
	var payload bytes.Buffer
	w := tlog.NewDeltaWriter(&payload)
	widths := make([]int, 0, upTo-t.tailStart)
	for _, b := range t.tail {
		if b.start >= upTo {
			break
		}
		n := upTo - b.start
		if n > len(b.ev) {
			n = len(b.ev)
		}
		for i := 0; i < n; i++ {
			if err := w.Append(b.ev[i], b.stamps[i]); err != nil {
				return fmt.Errorf("track: sealing: %w", err)
			}
			widths = append(widths, len(b.stamps[i]))
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("track: sealing: %w", err)
	}
	meta := tlog.SegmentMeta{Epoch: t.epoch, FirstIndex: t.tailStart, Count: upTo - t.tailStart}
	data, err := tlog.AppendSegment(nil, meta, widths, payload.Bytes())
	if err != nil {
		return fmt.Errorf("track: sealing: %w", err)
	}
	sum := sha256.Sum256(data)
	sg := &segment{meta: meta, size: int64(len(data)), sha: hex.EncodeToString(sum[:]), sealedAt: time.Now()}
	if t.dir != "" {
		if err := t.fs.MkdirAll(t.dir); err != nil {
			return fmt.Errorf("track: spilling: %w", err)
		}
		sg.dir, sg.file, sg.fs = t.dir, tlog.SegmentFileName(meta), t.fs
		// Write-then-rename with an fsync in between: after the rename
		// lands, the segment's bytes are durable, and a crash mid-write
		// leaves at most a stray temp file (ignored and cleaned by Open),
		// never a torn .mvcseg.
		if err := writeFileSync(t.fs, sg.dir, sg.file, data); err != nil {
			return fmt.Errorf("track: spilling: %w", err)
		}
	} else {
		sg.data = data
	}
	t.swapHist(func(old *segState) *segState {
		segs := make([]*segment, len(old.segs)+1)
		copy(segs, old.segs)
		segs[len(old.segs)] = sg
		return &segState{segs: segs, retained: old.retained, gen: old.gen + 1}
	})
	t.captureResumeLocked()
	// Drop consumed blocks outright (rather than truncating) so a spilling
	// tracker's footprint really is bounded by the seal interval; a block
	// the boundary cuts through is replaced by a copied remainder, never
	// re-sliced — frozen blocks a Stream still replays must stay intact.
	// The consumed blocks — the sealed arena storage — go onto the
	// reclaimer's limbo list rather than being dropped here: a Stream's own
	// references keep the blocks it replays alive regardless, and the limbo
	// entry tracks the release of the seal's reference until every
	// in-flight reader has passed the retirement.
	var rest []*tailBlock
	for _, b := range t.tail {
		end := b.start + len(b.ev)
		if end <= upTo {
			consumed := b
			t.reclaim.retireDeferred(func() { _ = consumed })
			continue
		}
		if b.start >= upTo {
			rest = append(rest, b)
			continue
		}
		k := upTo - b.start
		rest = append(rest, &tailBlock{
			start:  upTo,
			epoch:  b.epoch,
			ev:     append([]event.Event(nil), b.ev[k:]...),
			stamps: append([]vclock.Vector(nil), b.stamps[k:]...),
		})
		cut := b
		t.reclaim.retireDeferred(func() { _ = cut })
	}
	t.tail = rest
	t.tailStart = upTo
	t.sealed.Store(int64(upTo))
	// A successful seal re-arms auto-sealing after an earlier spill failure
	// (the storage evidently works again), exits degraded mode, and
	// restarts the wall clock.
	t.sealBroken.Store(false)
	t.degradedSince.Store(0)
	t.lastSealNano.Store(time.Now().UnixNano())
	t.sealPasses.Add(1)
	return nil
}

// Seal quiesces the tracker, merges all per-thread buffers, and seals the
// tail into an immutable delta-encoded segment (spilled to disk when the
// tracker was opened on a directory). Compact seals implicitly; the spill
// policy seals automatically. Sealing never changes what any reader
// observes — only where (and how compactly) the history is held. A
// successful Seal publishes the catalog and re-arms auto-sealing after a
// spill failure.
func (t *Tracker) Seal() error {
	if t.closed.Load() {
		return fmt.Errorf("track: Seal on a closed Tracker")
	}
	t.world.Lock()
	t.mergeLocked()
	err := t.sealLocked(t.mergedLenLocked())
	t.world.Unlock()
	if err != nil {
		return err
	}
	t.afterSeal()
	return nil
}

// afterSeal is the post-barrier lifecycle work every successful seal path
// shares: run the auto-compaction pass if the policy asks for one, then the
// auto-retention pass, then publish the catalog shippers poll (unless one
// of the passes ran — each publishes itself, as part of its
// publish-before-delete ordering).
func (t *Tracker) afterSeal() {
	published := t.maybeCompactSegments()
	if t.maybeRetainSegments() {
		published = true
	}
	if !published {
		t.publishCatalog()
	}
	// The barrier has lifted: drain whatever the seal retired under it
	// (consumed tail blocks, the superseded history snapshot) from the
	// reclaimer's limbo list, now that frees may safely run.
	t.reclaim.reclaim()
	// Newly sealed records are now replayable without a barrier; wake the
	// registered monitors (non-blocking — a busy monitor picks the new
	// segments up on its next pass anyway).
	t.notifyMonitors()
}

// maybeAutoSeal runs after a commit has released every lock: when the
// unsealed suffix has outgrown the policy (by count, by aligned interval,
// or by wall time), one caller wins the gate and seals. A failure (spill
// I/O that survived the retry discipline) surfaces through Err and the
// catalog health field, leaves the history in memory, and flips the
// tracker into degraded mode: auto-sealing DISARMS — otherwise every later
// commit would retry a stop-the-world barrier plus failing I/O against
// broken storage, collapsing the hot path — and commits continue fully in
// memory. While degraded, a cheap periodic probe (faults.go) re-arms
// sealing once the disk recovers; an explicit Seal or Compact that
// succeeds re-arms it too.
func (t *Tracker) maybeAutoSeal() {
	if t.sealBroken.Load() {
		t.maybeProbe()
		return
	}
	if !t.spill.autoSealDue(t.seq.Load(), t.sealed.Load(), t.lastSealNano.Load()) {
		return
	}
	if !t.sealGate.CompareAndSwap(false, true) {
		return // someone else is already sealing
	}
	defer t.sealGate.Store(false)
	if err := t.autoSeal(); err != nil {
		t.enterDegraded()
		t.noteErr(err)
		// Broken storage is exactly what a shipper wants to learn promptly;
		// publishing may fail on the same storage, which noteErr keeps.
		t.publishCatalog()
	}
}

// autoSeal seals up to the policy's boundary: the largest SealEvery
// multiple when alignment is on and a full interval is pending, the whole
// tail otherwise.
func (t *Tracker) autoSeal() error {
	t.world.Lock()
	t.mergeLocked()
	upTo := t.mergedLenLocked()
	if n := t.spill.SealEvery; n > 0 {
		if aligned := upTo / n * n; aligned > t.tailStart {
			upTo = aligned
		}
	}
	err := t.sealLocked(upTo)
	t.world.Unlock()
	if err != nil {
		return err
	}
	t.afterSeal()
	return nil
}

// sealedStamp reconstructs the stamp of sealed event idx from its segment.
// The segment list is a lock-free snapshot; a spill file retired by a
// concurrent compaction between the snapshot and the read is retried
// against the fresh list, whose merged replacement covers the same records.
func (t *Tracker) sealedStamp(idx int) (vclock.Vector, error) {
	const maxRetries = 3
	for attempt := 0; ; attempt++ {
		segs := t.hist.Load().segs
		i := sort.Search(len(segs), func(i int) bool {
			m := segs[i].meta
			return m.FirstIndex+m.Count > idx
		})
		if i == len(segs) || segs[i].meta.FirstIndex > idx {
			return nil, fmt.Errorf("no segment holds event %d", idx)
		}
		v, err := segs[i].stampAt(idx)
		if err == nil || attempt >= maxRetries || !errors.Is(err, fs.ErrNotExist) {
			return v, err
		}
	}
}

// SegmentInfo describes one sealed segment for inspection.
type SegmentInfo struct {
	// Epoch the segment's records belong to (a segment never spans one).
	Epoch int
	// FirstIndex is the global trace index of the segment's first record;
	// Events is how many records it holds.
	FirstIndex int
	Events     int
	// Bytes is the encoded container size; Path is the spill file, empty
	// while the segment is held in memory.
	Bytes int64
	Path  string
	// SHA256 is the hex content hash of the encoded container — what the
	// catalog advertises to shippers.
	SHA256 string
}

// Segments lists the sealed history, oldest first. Lock-free — it reads one
// immutable snapshot, so it is safe even inside a Do callback.
func (t *Tracker) Segments() []SegmentInfo {
	segs := t.hist.Load().segs
	out := make([]SegmentInfo, len(segs))
	for i, sg := range segs {
		out[i] = SegmentInfo{
			Epoch:      sg.meta.Epoch,
			FirstIndex: sg.meta.FirstIndex,
			Events:     sg.meta.Count,
			Bytes:      sg.size,
			Path:       sg.path(),
			SHA256:     sg.sha,
		}
	}
	return out
}

// StampSink consumes a timestamped computation in trace order, one record
// per call: the event (with its global index), the epoch it was recorded
// in, and its full stamp at the clock width of that moment. The vector is
// borrowed — valid only until ConsumeStamp returns — so sinks that retain
// stamps must clone them; sinks that merely encode or aggregate get an
// allocation profile independent of the computation's length. A sink may
// block and may call back into the Tracker (no phase of a Stream holds the
// stop-the-world barrier while the sink runs), though barrier-taking
// methods like Snapshot will of course stall commits as they always do.
type StampSink interface {
	ConsumeStamp(e event.Event, epoch int, v vclock.Vector) error
}

// Stream replays the whole recorded computation — sealed segments, then the
// merged tail — into sink, in trace order, stopping at the first sink or
// segment error. No phase delivers records under the world write barrier:
//
//   - Sealed segments are immutable, so they are replayed with no lock at
//     all — the tracker keeps committing, sealing and compacting
//     underneath. (A compaction pass may retire a spill file mid-stream;
//     the replay retries against the fresh segment list, whose merged
//     segment carries the identical records.)
//   - The merged tail is double-buffered: Stream takes the barrier only
//     long enough to merge the per-thread buffers and freeze the tail —
//     commits then continue into a fresh active block while the frozen
//     blocks are replayed outside the barrier. The pause commits observe is
//     the O(unsealed suffix) merge, never the sink's I/O.
//
// The result is a consistent snapshot of the tracker as of the freeze: all
// events below the freeze point, none after, each with the epoch it was
// recorded in.
func (t *Tracker) Stream(sink StampSink) error {
	return t.StreamFrom(0, sink)
}

// StreamFrom is Stream starting at global trace index from: records below
// from are skipped, records from it on are delivered with the same
// barrier discipline (sealed history and frozen blocks replay without the
// barrier; only the freeze itself stops the world). A from below the
// retention floor is clamped to it. Monitors use StreamFrom to consume the
// unsealed tail on demand without re-reading history they have already
// evaluated.
func (t *Tracker) StreamFrom(from int, sink StampSink) error {
	// Phase 1: sealed history, no barrier, starting at the retention floor
	// (events below it were retired by a RetainPolicy pass and are no
	// longer replayable). The catch-up rounds are bounded: under sustained
	// auto-sealing a streamer on slow storage could otherwise chase freshly
	// sealed segments forever; whatever remains after the last round is
	// picked up by the freeze, which guarantees termination.
	delivered := from
	if r := t.RetainedEvents(); delivered < r {
		delivered = r
	}
	for round := 0; round < 4; round++ {
		n, err := t.replaySealed(sink, delivered, -1)
		if err != nil {
			return err
		}
		if n == delivered {
			break
		}
		delivered = n
	}
	// Phase 2: the freeze — the stream's only barrier. Merge the per-thread
	// buffers, note how far sealed history reaches, and freeze every tail
	// block; commits restart into a fresh active block the moment the
	// barrier lifts.
	t.world.Lock()
	t.mergeLocked()
	sealedEnd := t.tailStart
	blocks := make([]*tailBlock, len(t.tail))
	copy(blocks, t.tail)
	for _, b := range blocks {
		b.frozen = true
	}
	t.world.Unlock()
	// Phase 3: no barrier. Catch up on segments sealed during phase 1, then
	// replay the frozen blocks. Concurrent seals may consume the frozen
	// blocks (our references keep them alive) and concurrent compaction may
	// rewrite the very segments being caught up on — both invisible here.
	if delivered < sealedEnd {
		n, err := t.replaySealed(sink, delivered, sealedEnd)
		if err != nil {
			return err
		}
		if n < sealedEnd {
			return fmt.Errorf("track: sealed history unreadable from event %d (want %d): %w",
				n, sealedEnd, errSegmentVanished)
		}
		delivered = n
	}
	for _, b := range blocks {
		for i, e := range b.ev {
			if e.Index < delivered {
				continue // below from: already consumed by the caller
			}
			if err := sink.ConsumeStamp(e, b.epoch, b.stamps[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// replaySealed streams sealed records with global index in [from, to) into
// sink (to < 0: as far as sealed history currently reaches) and returns the
// next undelivered index. The segment list is snapshotted without the write
// barrier; when a spill file vanishes before it is opened — the signature
// of a concurrent compaction retiring it — the replay re-snapshots and
// retries, since the merged replacement covers the same records. A segment
// that stays unreadable across retries (a spill file genuinely lost) is an
// error.
func (t *Tracker) replaySealed(sink StampSink, from, to int) (int, error) {
	delivered := from
	// Register as an epoch-reclamation reader for the duration of the
	// replay: spill files retired by a compaction or retention pass that
	// starts after this pin sit in limbo — not deleted — until the replay
	// finishes, so the vanished-file retry below is a fallback (for
	// retirements that began before the pin), not the mechanism.
	rec := t.reclaim.register()
	rec.pin(&t.reclaim)
	defer t.reclaim.unregister(rec)
	defer rec.unpin()
	// The retry budget is per stall, not per stream: progress since the
	// last snapshot proves the list is live and resets it, so a long replay
	// under sustained compaction retries each retirement it trips over,
	// while a genuinely lost file still fails after maxRetries fruitless
	// snapshots.
	const maxRetries = 3
	for retries := 0; ; {
		segs := t.sealedCovering(delivered)
		if len(segs) == 0 {
			return delivered, nil
		}
		snapshotAt := delivered
		vanished := false
		for _, sg := range segs {
			if to >= 0 && sg.meta.FirstIndex >= to {
				return delivered, nil
			}
			if sg.meta.FirstIndex > delivered {
				// Sealed history is gapless above the retention floor, so a
				// segment starting past the replay point means a retention
				// pass retired events [delivered, FirstIndex) after this
				// stream began. A gapped delivery would be silently wrong;
				// fail instead (a fresh Stream starts at the new floor).
				return delivered, fmt.Errorf("track: events [%d,%d) retired by retention mid-stream",
					delivered, sg.meta.FirstIndex)
			}
			n, err := sg.streamFrom(sink, delivered, to)
			delivered += n
			if err != nil {
				if errors.Is(err, errSegmentVanished) {
					if delivered > snapshotAt {
						retries = 0
					}
					if retries < maxRetries {
						retries++
						vanished = true
						break // re-snapshot and retry from delivered
					}
				}
				return delivered, err
			}
			if to >= 0 && delivered >= to {
				return delivered, nil
			}
		}
		if !vanished {
			return delivered, nil
		}
	}
}

// sealedCovering snapshots the suffix of the sealed-segment list covering
// global indices at or above from. Lock-free — one snapshot load; the
// returned slice is immutable.
func (t *Tracker) sealedCovering(from int) []*segment {
	segs := t.hist.Load().segs
	i := sort.Search(len(segs), func(i int) bool {
		m := segs[i].meta
		return m.FirstIndex+m.Count > from
	})
	return segs[i:len(segs):len(segs)]
}

// SnapshotTo streams the recorded computation into w as a delta-encoded
// MVCLOG02 log (the WriteLogDelta wire format, readable by tlog.ReadAll and
// mvc inspect), without ever materializing a vector table: sealed segments
// decode straight back into the writer and the tail's stamps are encoded in
// place. Output bytes are identical to materializing Snapshot() and writing
// it with tlog.WriteAllDelta — the pipeline changes the cost, not the log —
// and are unchanged by sealing and compaction, which move records between
// containers without touching them.
func (t *Tracker) SnapshotTo(w io.Writer) error {
	lw := tlog.NewDeltaWriter(w)
	if err := t.Stream(deltaSink{lw}); err != nil {
		return err
	}
	return lw.Flush()
}

// collectSink materializes a streamed computation — the sink behind
// Snapshot.
type collectSink struct {
	trace  *event.Trace
	stamps []vclock.Vector
}

func (c *collectSink) ConsumeStamp(e event.Event, _ int, v vclock.Vector) error {
	c.trace.AppendEvent(e)
	c.stamps = append(c.stamps, v.Clone())
	return nil
}

// deltaSink pipes a streamed computation into a tlog.DeltaWriter.
type deltaSink struct{ w *tlog.DeltaWriter }

func (s deltaSink) ConsumeStamp(e event.Event, _ int, v vclock.Vector) error {
	return s.w.Append(e, v)
}
