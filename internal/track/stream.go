package track

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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
	// reason in whole intervals. An automatic seal stops commits only for
	// its two short barriers — merging the per-thread buffers and freezing
	// the tail, then publishing the written segment; the encode, hash and
	// spill run with commits flowing. The pause each barrier costs is
	// O(records merged × changed components), not O(SealEvery × clock
	// width), and it never includes disk I/O. Zero seals only at Compact,
	// an explicit Seal, or SealInterval.
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

// sealJob is one seal in flight: the tail records [from, upTo) of one epoch,
// as the frozen blocks holding them plus every thread's base at from. The
// freeze barrier captures it; from then on nothing it references is ever
// mutated, so the encode and spill run with no lock held.
type sealJob struct {
	from, upTo, epoch int
	blocks            []*tailBlock
	bases             []vclock.Vector
}

// freezeSealLocked captures the seal of the tail below upTo (clamped to
// what is merged): it freezes every block holding such records — later
// merges start a fresh block — and snapshots the threads' bases. nil means
// there is nothing to seal. The caller holds the world write lock and has
// merged.
func (t *Tracker) freezeSealLocked(upTo int) *sealJob {
	upTo = min(upTo, t.mergedLenLocked())
	if upTo <= t.tailStart {
		return nil
	}
	j := &sealJob{from: t.tailStart, upTo: upTo, epoch: t.epoch, bases: t.basesLocked()}
	for _, b := range t.tail {
		if b.start >= upTo {
			break
		}
		b.frozen = true
		j.blocks = append(j.blocks, b)
	}
	return j
}

// writeSeal encodes a frozen seal job as one MVCSEG01 container, hashes it,
// and spills it when the tracker has a directory; it returns the segment and
// every thread's base as of j.upTo. It takes no lock: the job's blocks and
// bases are immutable. A thread's first record in the segment is encoded
// from its full stamp (base plus change set), every later one straight from
// its change set — byte-identical to encoding each full stamp, by
// AppendDelta's contract.
func (t *Tracker) writeSeal(j *sealJob) (*segment, []vclock.Vector, error) {
	var payload bytes.Buffer
	w := tlog.NewDeltaWriter(&payload)
	widths := make([]int, 0, j.upTo-j.from)
	// cur[th] is thread th's running stamp once the segment has reached it;
	// each is fresh storage, and the last value becomes the thread's base.
	cur := make([]vclock.Vector, len(j.bases))
	started := make([]bool, len(j.bases))
	for _, b := range j.blocks {
		n := min(j.upTo-b.start, len(b.ev))
		for i := 0; i < n; i++ {
			e, r := b.ev[i], b.recs[i]
			ds := b.deltas[r.start:r.end]
			var err error
			if started[e.Thread] {
				cur[e.Thread] = cur[e.Thread].Apply(ds).Grow(int(r.width))
				err = w.AppendDelta(e, ds)
			} else {
				started[e.Thread] = true
				cur[e.Thread] = j.bases[e.Thread].Clone().Apply(ds).Grow(int(r.width))
				err = w.Append(e, cur[e.Thread])
			}
			if err != nil {
				return nil, nil, fmt.Errorf("track: sealing: %w", err)
			}
			widths = append(widths, len(cur[e.Thread]))
		}
	}
	if err := w.Flush(); err != nil {
		return nil, nil, fmt.Errorf("track: sealing: %w", err)
	}
	meta := tlog.SegmentMeta{Epoch: j.epoch, FirstIndex: j.from, Count: j.upTo - j.from}
	data, err := tlog.AppendSegment(nil, meta, widths, payload.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("track: sealing: %w", err)
	}
	sum := sha256.Sum256(data)
	sg := &segment{meta: meta, size: int64(len(data)), sha: hex.EncodeToString(sum[:]), sealedAt: time.Now()}
	if t.dir != "" {
		if err := t.fs.MkdirAll(t.dir); err != nil {
			return nil, nil, fmt.Errorf("track: spilling: %w", err)
		}
		sg.dir, sg.file, sg.fs = t.dir, tlog.SegmentFileName(meta), t.fs
		// Write-then-rename with an fsync in between: after the rename
		// lands, the segment's bytes are durable, and a crash mid-write
		// leaves at most a stray temp file (ignored and cleaned by Open),
		// never a torn .mvcseg.
		if err := writeFileSync(t.fs, sg.dir, sg.file, data); err != nil {
			return nil, nil, fmt.Errorf("track: spilling: %w", err)
		}
	} else {
		sg.data = data
	}
	for th, ok := range started {
		if !ok {
			cur[th] = j.bases[th]
		}
	}
	return sg, cur, nil
}

// publishSealLocked makes a written seal visible: it appends the segment to
// the sealed history, installs the threads' new bases, cuts the consumed
// records off the tail and moves tailStart. The caller holds the world
// write lock, and holds sealMu across the freeze, the write and this
// publish, so the tail below j.upTo is exactly the job's frozen blocks.
func (t *Tracker) publishSealLocked(j *sealJob, sg *segment, bases []vclock.Vector) {
	t.swapHist(func(old *segState) *segState {
		segs := make([]*segment, len(old.segs)+1)
		copy(segs, old.segs)
		segs[len(old.segs)] = sg
		return &segState{segs: segs, retained: old.retained, gen: old.gen + 1}
	})
	// Threads registered after the freeze have no record below upTo; their
	// bases stay nil.
	t.reg.Lock()
	for i, v := range bases {
		t.threads[i].base = v
	}
	t.reg.Unlock()
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
	upTo := j.upTo
	var rest []*tailBlock
	for _, b := range t.tail {
		if b.start+len(b.ev) > upTo {
			if b.start >= upTo {
				rest = append(rest, b)
				continue
			}
			rest = append(rest, b.suffix(upTo-b.start))
		}
		consumed := b
		t.reclaim.retireDeferred(func() { _ = consumed })
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
}

// Seal quiesces the tracker, merges all per-thread buffers, and seals the
// tail into an immutable delta-encoded segment (spilled to disk when the
// tracker was opened on a directory). Compact seals implicitly; the spill
// policy seals automatically. Sealing never changes what any reader
// observes — only where (and how compactly) the history is held. A
// successful Seal publishes the catalog and re-arms auto-sealing after a
// spill failure.
//
// Commits stop only twice, briefly: once to merge and freeze the tail, and
// once to publish the written segment. The encode, the SHA-256 and the
// spill's write, fsync and rename run between the two with commits flowing.
func (t *Tracker) Seal() error {
	if t.closed.Load() {
		return fmt.Errorf("track: Seal on a closed Tracker")
	}
	if err := t.sealSplit(t.mergedLenLocked); err != nil {
		return err
	}
	t.afterSeal()
	return nil
}

// sealLocked seals the tail below upTo entirely under the caller's world
// write barrier — the freeze, encode, spill and publish of a seal in one
// critical section. Compact and Close use it: they need history sealed at
// the very instant they act. The caller holds sealMu and the world write
// lock and has merged. On error (segment encoding, spill I/O) the tail
// keeps its records, so no history is lost — the tracker just keeps it in
// memory.
func (t *Tracker) sealLocked(upTo int) error {
	j := t.freezeSealLocked(upTo)
	if j == nil {
		return nil
	}
	sg, bases, err := t.writeSeal(j)
	if err != nil {
		return err
	}
	t.publishSealLocked(j, sg, bases)
	return nil
}

// sealSplit seals the tail up to the boundary cut picks, outside the world
// barrier: one barrier merges and freezes (cut runs under it), the segment
// is written with no lock held, and a second barrier publishes it. sealMu
// keeps any other seal, Compact or Close out for the whole span. On error
// the frozen records stay in the tail.
func (t *Tracker) sealSplit(cut func() int) error {
	t.sealMu.Lock()
	defer t.sealMu.Unlock()
	t.world.Lock()
	t.mergeLocked()
	j := t.freezeSealLocked(cut())
	t.world.Unlock()
	if j == nil {
		return nil
	}
	sg, bases, err := t.writeSeal(j)
	if err != nil {
		return err
	}
	t.world.Lock()
	t.publishSealLocked(j, sg, bases)
	t.world.Unlock()
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
	err := t.sealSplit(func() int {
		upTo := t.mergedLenLocked()
		if n := t.spill.SealEvery; n > 0 {
			if aligned := upTo / n * n; aligned > t.tailStart {
				upTo = aligned
			}
		}
		return upTo
	})
	if err != nil {
		return err
	}
	t.afterSeal()
	return nil
}

// sealedStamp reconstructs the stamp of sealed event idx by replaying its
// segment into a one-record sink. replaySealed takes no barrier, pins the
// reclaimer, retries a spill file a concurrent compaction retired, and
// fails below the retention floor.
func (t *Tracker) sealedStamp(idx int) (vclock.Vector, error) {
	c := collectSink{trace: event.NewTrace()}
	if _, err := t.replaySealed(&c, idx, idx+1); err != nil {
		return nil, err
	}
	if len(c.stamps) == 0 {
		return nil, fmt.Errorf("no segment holds event %d", idx)
	}
	return c.stamps[0], nil
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
	// buffers, note how far sealed history reaches, snapshot the threads'
	// bases there, and freeze every tail block; commits restart into a
	// fresh active block the moment the barrier lifts.
	t.world.Lock()
	t.mergeLocked()
	sealedEnd := t.tailStart
	bases := t.basesLocked()
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
	return replayTail(sink, blocks, bases, delivered)
}

// replayTail delivers the frozen tail blocks' records with global index at
// or above from into sink, rebuilding each stamp by applying its change set
// to its thread's running vector. The running vectors start from bases (the
// threads' stamps where the blocks begin) and are carved out of one slab
// sized by the widest record, so the replay allocates a constant amount
// whatever the tail's length. Records below from are applied but not
// delivered. The delivered vector is the running vector itself — borrowed,
// as StampSink allows.
func replayTail(sink StampSink, blocks []*tailBlock, bases []vclock.Vector, from int) error {
	width := 0
	for _, v := range bases {
		width = max(width, len(v))
	}
	for _, b := range blocks {
		width = max(width, b.width)
	}
	slab := make([]uint64, len(bases)*width)
	cur := bases // reused in place: each entry is read once, then replaced
	for i, v := range bases {
		cur[i] = append(slab[i*width:i*width:(i+1)*width], v...)
	}
	for _, b := range blocks {
		for i, e := range b.ev {
			r := b.recs[i]
			v := cur[e.Thread].Apply(b.deltas[r.start:r.end]).Grow(int(r.width))
			cur[e.Thread] = v
			if e.Index < from {
				continue // below from: already consumed by the caller
			}
			if err := sink.ConsumeStamp(e, b.epoch, v); err != nil {
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
// error, and so is a replay point below the retention floor.
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
		st := t.hist.Load()
		if delivered < st.retained {
			return delivered, fmt.Errorf("track: events [%d,%d) retired by retention", delivered, st.retained)
		}
		i := sort.Search(len(st.segs), func(i int) bool {
			m := st.segs[i].meta
			return m.FirstIndex+m.Count > delivered
		})
		segs := st.segs[i:]
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
				// Sealed history is gapless above the retention floor
				// checked above, so this is a broken invariant. A gapped
				// delivery would be silently wrong; fail instead.
				return delivered, fmt.Errorf("track: sealed history has no events [%d,%d)",
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
