package track

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
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
	// SealEvery events, each interval as its own segment, so segment edges
	// land at predictable indices — retention jobs and snapshot consumers
	// can reason in whole intervals. The seal does not run on the
	// committing goroutine: the commit that crosses a boundary only starts
	// the tracker's lifecycle worker, which seals every due interval, then
	// publishes the catalog and queues the compaction and retention passes
	// (run by a second worker, so a seal never waits for them). Commits
	// stop only for each seal's two short barriers — swapping the
	// per-thread buffers out, then publishing the written segment — and
	// both are O(threads), with no disk I/O (Stats reports the holds).
	//
	// Backpressure bounds memory: a commit that finds four SealEvery
	// intervals or more unsealed (live per-thread buffers plus the merged
	// tail) waits for the worker's next publish, so after any commit of a
	// single goroutine fewer than 4 × SealEvery events are unsealed, and
	// fewer than SealEvery once the worker is idle. Zero seals only at
	// Compact, an explicit Seal, Close, or SealInterval.
	//
	// If an automatic seal fails (spill I/O), the error surfaces through
	// Err and the catalog health field, the history stays in memory, and
	// auto-sealing disarms until an explicit Seal or Compact succeeds (or a
	// Probe re-arms it) — one failed seal, not one per commit. While it is
	// disarmed no commit waits: the backlog grows in memory instead.
	SealEvery int
	// SealInterval, when positive, also triggers a seal once this much wall
	// time has passed since the last one, bounding how stale the sealed
	// history (and the catalog shippers poll) can go under light traffic.
	// The clock is checked on the commit path, which then only starts the
	// lifecycle worker, so an entirely idle tracker does not seal on its
	// own. When SealEvery is also set and a full interval is pending, the
	// worker seals the aligned intervals; otherwise it flushes the whole
	// tail. The wall-time trigger adds no backpressure of its own.
	SealInterval time.Duration
	// Probe is how often a tracker in degraded mode (auto-sealing disarmed
	// by a persistent spill failure) probes the spill directory with a
	// throwaway durable write; a successful probe re-arms sealing, and the
	// worker goes on to seal the backlog. Zero means a one-second default.
	// The probe runs on the lifecycle worker; a commit only checks, while
	// degraded, whether one is due, and never waits for it.
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

// bytes returns the segment's container: the in-memory bytes themselves,
// or the spill file read whole.
func (sg *segment) bytes() ([]byte, error) {
	if sg.file == "" {
		return sg.data, nil
	}
	return vfs.ReadFile(sg.fsys(), sg.path())
}

// fsys returns the filesystem the spill file is read through.
func (sg *segment) fsys() vfs.FS {
	if sg.fs == nil {
		return vfs.OS
	}
	return sg.fs
}

// open returns the segment's container bytes as a stream.
func (sg *segment) open() (io.ReadCloser, error) {
	if sg.file == "" {
		return io.NopCloser(bytes.NewReader(sg.data)), nil
	}
	return sg.fsys().Open(sg.path())
}

// streamFrom replays the segment's records with global index in [from, to)
// into sink (to < 0 means no upper bound) and returns how many records it
// delivered. Records below from are decoded but not delivered — the delta
// payload only decodes front to back. An in-memory container is decoded in
// place and a spill file read whole first; the borrowed vectors are handed
// straight through, so a replay allocates only the reader state and the
// file's bytes, independent of the record count. A derived record's ticks
// go along to a sink that takes them (tickSink). An error opening the
// container is returned as errSegmentVanished-wrapped so Stream can
// distinguish a spill file retired by a concurrent compaction from a sink
// failure.
func (sg *segment) streamFrom(sink StampSink, from, to int) (int, error) {
	data, err := sg.bytes()
	if err != nil {
		return 0, fmt.Errorf("track: opening segment %v: %w (%w)", sg.meta, err, errSegmentVanished)
	}
	sr, err := tlog.NewSegmentReaderBytes(data)
	if err != nil {
		return 0, fmt.Errorf("track: segment %v: %w", sg.meta, err)
	}
	ts, ticked := sink.(tickSink)
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
		if c, n := sr.Ticks(); ticked && n > 0 {
			err = ts.consumeTicked(e, sg.meta.Epoch, v, c, n)
		} else {
			err = sink.ConsumeStamp(e, sg.meta.Epoch, v)
		}
		if err != nil {
			return delivered, err
		}
		delivered++
	}
}

// tickSink is a StampSink that also takes a sealed derived record's ticks,
// which the segment reader knows from the record's payload: streamFrom
// hands them, c[:n] ascending, to a sink that implements it, and every
// other record to ConsumeStamp. The Monitor is the one that does; it
// orders the record against later stamps by them.
type tickSink interface {
	StampSink
	consumeTicked(e event.Event, epoch int, v vclock.Vector, c [2]int, n int) error
}

// errSegmentVanished marks a segment container that could not be opened —
// either a spill file retired by a concurrent compaction (retriable against
// a fresh segment list) or one genuinely lost underneath the tracker.
var errSegmentVanished = errors.New("segment unreadable")

// sealJob is one seal in flight: the tail records [from, upTo) of one epoch,
// as the generations holding them, each of which carries the stamps its
// threads start from. The first barrier captures it; from then on nothing
// it references is mutated except by the weave, which finishes before the
// encode reads it, so the weave, encode and spill all run with no world
// lock held.
type sealJob struct {
	from, upTo, epoch int
	blocks            []*tailBlock
}

// freezeSealLocked captures the seal of the tail below upTo (clamped to
// what is merged): the generations holding such records. nil means there
// is nothing to seal. The caller holds the world write lock and has
// swapped.
func (t *Tracker) freezeSealLocked(upTo int) *sealJob {
	upTo = min(upTo, t.mergedLenLocked())
	if upTo <= t.tailStart {
		return nil
	}
	j := &sealJob{from: t.tailStart, upTo: upTo, epoch: t.epoch}
	for _, b := range t.tail {
		if b.start >= upTo {
			break
		}
		j.blocks = append(j.blocks, b)
	}
	return j
}

// writeSeal encodes a seal job's records below j.upTo as one MVCSEG01
// container straight from the swapped buffers (encodeSeal), hashes it, and
// spills it when the tracker has a directory. It returns the segment and
// the remainder of a generation the cut goes through (nil when it falls
// between two). It holds no lock but mergeMu, and that only while it
// weaves: the encode, the hash and the spill read generations that are
// immutable once woven. The encode's scratch — the record widths, the
// payload and the writer — is the tracker's, reused under sealMu, which
// the caller holds.
func (t *Tracker) writeSeal(j *sealJob) (*segment, *tailBlock, error) {
	payload := &t.sealPayload
	payload.Reset()
	// Size the payload once, at the last segment's bytes per record plus
	// some headroom: growing it by doubling would clear and copy it over
	// and over.
	if segs := t.hist.Load().segs; len(segs) > 0 {
		if last := segs[len(segs)-1]; last.meta.Count > 0 {
			payload.Grow(int(last.size/int64(last.meta.Count)+8) * (j.upTo - j.from))
		}
	}
	if err := t.encodeSeal(j, payload); err != nil {
		return nil, nil, fmt.Errorf("track: sealing: %w", err)
	}
	meta := tlog.SegmentMeta{Epoch: j.epoch, FirstIndex: j.from, Count: j.upTo - j.from}
	data, err := tlog.AppendSegment(nil, meta, t.sealWidths, payload.Bytes())
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
	var rest *tailBlock
	if last := j.blocks[len(j.blocks)-1]; last.end > j.upTo {
		rest = last.suffix(j.upTo)
	}
	return sg, rest, nil
}

// encodeSeal writes the records of j below j.upTo to payload in the
// MVCLOG03 delta format and their widths to t.sealWidths. It first weaves
// whatever of j is still pending, then encodes with no lock held. The
// writer's per-thread running stamp is the only vector it keeps: at a
// thread's first record in the segment it is seeded with the stamp the
// record starts from (genThread.stampBefore), so that record is written
// full and every later one straight from its change set and tick count —
// derived once the record's object has appeared in the segment too, a
// delta before that; byte-identical to encoding each full stamp, by
// AppendDelta's contract. The writer is reset for every seal, so it keeps
// its buffers and every thread's vector storage from one to the next.
func (t *Tracker) encodeSeal(j *sealJob, payload *bytes.Buffer) error {
	t.weaveTo(j.upTo)
	w := t.sealWriter
	w.Reset(payload)
	t.sealWidths = slices.Grow(t.sealWidths[:0], j.upTo-j.from)
	started := make([]bool, threadsIn(j.blocks))
	var seed vclock.Vector
	for _, b := range j.blocks {
		for i := range b.order[:min(j.upTo, b.end)-b.start] {
			sl := &b.order[i]
			gt := &b.thr[sl.thr]
			if !started[gt.id] {
				started[gt.id] = true
				seed = gt.stampBefore(int(sl.pos), seed)
				w.Seed(gt.id, seed)
			}
			if err := w.AppendDelta(sl.event(b, i), gt.deltas[sl.start:sl.end], sl.ticks()); err != nil {
				return err
			}
			t.sealWidths = append(t.sealWidths, int(sl.width))
		}
	}
	return w.Flush()
}

// threadsIn returns one more than the highest thread ID with an entry in
// blocks: the size of a table indexed by their threads.
func threadsIn(blocks []*tailBlock) int {
	n := 0
	for _, b := range blocks {
		if len(b.thr) > 0 {
			n = max(n, int(b.thr[len(b.thr)-1].id)+1)
		}
	}
	return n
}

// publishSealLocked makes a written seal visible: it appends the segment to
// the sealed history, replaces the consumed generations at the head of the
// tail with rest (the cut one's remainder, if any) and moves tailStart. The
// caller holds the world write lock, and holds sealMu across the freeze,
// the write and this publish, so the tail below j.upTo is exactly the
// job's generations.
func (t *Tracker) publishSealLocked(j *sealJob, sg *segment, rest *tailBlock) {
	t.swapHist(func(old *segState) *segState {
		segs := make([]*segment, len(old.segs)+1)
		copy(segs, old.segs)
		segs[len(old.segs)] = sg
		return &segState{segs: segs, retained: old.retained, gen: old.gen + 1}
	})
	t.captureResumeLocked()
	// Drop the consumed generations outright (rather than truncating) so a
	// spilling tracker's footprint really is bounded by the seal interval;
	// one the boundary cuts through is replaced by its remainder, never
	// re-sliced — a Stream may still be replaying it. The consumed
	// generations go onto the reclaimer's limbo list, and their buffers
	// back to their threads as spares, only once every reader that could
	// hold them — a Stream is pinned across its tail replay — has passed.
	// A cut generation's buffers live on in its remainder, which hands them
	// back when it is consumed in turn; until then the thread's swaps find
	// no spare, and its next generation is allocated at its commit
	// (openGen).
	for _, b := range j.blocks {
		if rest != nil && b == j.blocks[len(j.blocks)-1] {
			break
		}
		t.tailReclaim.retireDeferred(func() { t.recycle(b) })
	}
	tail := t.tail[len(j.blocks):]
	if rest != nil {
		tail = append([]*tailBlock{rest}, tail...)
	}
	t.tail = tail
	t.tailStart = j.upTo
	t.sealed.Store(int64(j.upTo))
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
// policy seals automatically, on the lifecycle worker. Sealing never
// changes what any reader observes — only where (and how compactly) the
// history is held. Seal first seals, one segment each, the SealEvery
// intervals the worker has not sealed yet, so the segments do not depend
// on how far it lagged. A successful Seal publishes the catalog, re-arms
// auto-sealing after a spill failure, and returns once the compaction and
// retention passes its seals queued have run.
//
// Commits stop only twice per segment, whatever the number of records:
// once to swap the per-thread buffers out, and once to publish the written
// segment. The interleave into trace order, the encode, the SHA-256 and the
// spill's write, fsync and rename run between the two with commits flowing.
func (t *Tracker) Seal() error {
	if t.closed.Load() {
		return fmt.Errorf("track: Seal on a closed Tracker")
	}
	if err := t.catchUp(); err != nil {
		return err
	}
	sealed, err := t.sealSplit(t.committedLocked)
	if err != nil {
		return err
	}
	ticket := t.lastTicket()
	if !sealed {
		// Nothing new to seal; the policies still get their pass (a
		// retention age may have lapsed), over the history as it stands.
		t.sealMu.Lock()
		ticket = t.queuePass(int(t.sealed.Load()), t.Epoch())
		t.sealMu.Unlock()
	}
	t.afterSeal()
	t.waitPasses(ticket)
	return nil
}

// sealLocked seals the tail below upTo entirely under the caller's world
// write barrier — the freeze, weave, encode, spill and publish of a seal in
// one critical section. Compact and Close use it: they need history sealed
// at the very instant they act. The caller holds sealMu and the world write
// lock and has swapped. On error (segment encoding, spill I/O) the tail
// keeps its records, so no history is lost — the tracker just keeps it in
// memory.
func (t *Tracker) sealLocked(upTo int) error {
	j := t.freezeSealLocked(upTo)
	if j == nil {
		return nil
	}
	sg, rest, err := t.writeSeal(j)
	if err != nil {
		return err
	}
	t.publishSealLocked(j, sg, rest)
	return nil
}

// sealSplit seals the tail up to the boundary cut picks, outside the world
// barrier, and reports whether it sealed anything. The first barrier only
// swaps the per-thread buffers into a new generation and freezes the job
// (cut runs under it) — O(threads), no record touched. The weave, the
// encode and the spill then run with no world lock held, and a second
// barrier publishes. sealMu keeps any other seal, Compact or Close out for
// the whole span, and the seal's compaction/retention pass is queued under
// it, so passes run in seal order. On error the swapped records stay in
// the tail.
func (t *Tracker) sealSplit(cut func() int) (bool, error) {
	t.sealMu.Lock()
	defer t.sealMu.Unlock()
	t.world.Lock()
	held := time.Now()
	// Swap only when the cut reaches into the per-thread buffers: a worker
	// catching up seals intervals the tail already holds, and a swap that
	// no seal consumes would only take the threads' spare buffers away.
	upTo := cut()
	if upTo > t.mergedLenLocked() {
		t.swapLocked()
	}
	j := t.freezeSealLocked(upTo)
	t.noteSealBarrier(held)
	t.world.Unlock()
	if j == nil {
		return false, nil
	}
	if t.sealPark != nil {
		t.sealPark(j.upTo)
	}
	sg, rest, err := t.writeSeal(j)
	if err != nil {
		return false, err
	}
	t.world.Lock()
	held = time.Now()
	t.publishSealLocked(j, sg, rest)
	t.noteSealBarrier(held)
	t.world.Unlock()
	t.queuePass(j.upTo, j.epoch)
	return true, nil
}

// noteSealBarrier adds the world-lock hold that began at held to the seal
// barrier statistics. The caller still holds the lock.
func (t *Tracker) noteSealBarrier(held time.Time) {
	d := int64(time.Since(held))
	t.sealBarrierNanos.Add(d)
	storeMax(&t.sealBarrierMax, d)
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
//     long enough to swap the per-thread buffers out and freeze the tail —
//     commits then continue into fresh buffers while the frozen records are
//     put in trace order and replayed outside the barrier. The pause
//     commits observe is the O(threads) swap, never the sink's I/O.
//
// The result is a consistent snapshot of the tracker as of the freeze: all
// events below the freeze point, none after, each with the epoch it was
// recorded in.
func (t *Tracker) Stream(sink StampSink) error {
	return t.StreamFrom(0, sink)
}

// StreamFrom is Stream starting at global trace index from: records below
// from are skipped, records from it on are delivered with the same
// barrier discipline (sealed history and the frozen tail replay without
// the barrier; only the freeze itself stops the world). A from below the
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
	//
	// One sealed-history reclamation record serves the whole stream: it is
	// pinned for phase 1, then afresh before the freeze for phase 3's
	// catch-up. A tail record, pinned before the freeze too, holds the
	// frozen generations: a seal that consumes them after the freeze
	// retires them into limbo, and their buffers are handed back to the
	// threads for reuse only once this replay has unpinned.
	rec := t.reclaim.register()
	defer t.reclaim.unregister(rec)
	defer rec.unpin()
	rec.pin(&t.reclaim)
	delivered := from
	if r := t.RetainedEvents(); delivered < r {
		delivered = r
	}
	for round := 0; round < 4; round++ {
		n, err := t.replayPinned(sink, delivered, -1)
		if err != nil {
			return err
		}
		if n == delivered {
			break
		}
		delivered = n
	}
	// Phase 2: the freeze — the stream's only barrier. Swap the per-thread
	// buffers into a new generation, note how far sealed history reaches
	// and snapshot the tail's generations; commits restart into fresh
	// buffers the moment the barrier lifts. The weave of whatever is still
	// pending runs after it, barrier-free.
	tailRec := t.tailReclaim.register()
	defer t.tailReclaim.unregister(tailRec)
	defer tailRec.unpin()
	tailRec.pin(&t.tailReclaim)
	rec.pin(&t.reclaim)
	t.world.Lock()
	t.swapLocked()
	sealedEnd := t.tailStart
	blocks := slices.Clone(t.tail)
	end := t.mergedLenLocked()
	t.world.Unlock()
	t.weaveTo(end)
	// Phase 3: no barrier. Catch up on segments sealed during phase 1, then
	// replay the frozen generations. Concurrent seals may consume them (the
	// pin keeps their buffers from reuse) and concurrent compaction may
	// rewrite the very segments being caught up on — both invisible here.
	if delivered < sealedEnd {
		n, err := t.replayPinned(sink, delivered, sealedEnd)
		if err != nil {
			return err
		}
		if n < sealedEnd {
			return fmt.Errorf("track: sealed history unreadable from event %d (want %d): %w",
				n, sealedEnd, errSegmentVanished)
		}
		delivered = n
	}
	return replayTail(sink, blocks, delivered)
}

// replayTail delivers the frozen tail generations' records with global
// index at or above from into sink, in trace order, rebuilding each stamp
// by applying its change set to its thread's running vector. Each
// generation seeds a thread's running vector at the thread's first slot
// there, with the stamp that record starts from (genThread.stampBefore):
// checkpoint 0, or in a cut generation's remainder the stamp of its last
// sealed record. The running vectors are carved out of one slab sized by
// the widest record, so the replay allocates a constant amount whatever
// the tail's length. A generation wholly below from is skipped; records
// below from in the others are applied but not delivered. The delivered
// vector is the running vector itself — borrowed, as StampSink allows.
func replayTail(sink StampSink, blocks []*tailBlock, from int) error {
	width := 0
	for _, b := range blocks {
		width = max(width, b.width)
	}
	n := threadsIn(blocks)
	slab := make([]uint64, n*width)
	cur := make([]vclock.Vector, n)
	for _, b := range blocks {
		if b.end <= from {
			continue
		}
		for i := range b.order {
			sl := &b.order[i]
			gt := &b.thr[sl.thr]
			id := int(gt.id)
			if int(sl.pos) == gt.off {
				cur[id] = gt.stampBefore(gt.off, slab[id*width:id*width:(id+1)*width])
			}
			v := cur[id].Apply(gt.deltas[sl.start:sl.end]).Grow(int(sl.width))
			cur[id] = v
			if b.start+i < from {
				continue // below from: already consumed by the caller
			}
			if err := sink.ConsumeStamp(sl.event(b, i), b.epoch, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// replaySealed streams sealed records with global index in [from, to) into
// sink (to < 0: as far as sealed history currently reaches) and returns the
// next undelivered index, registered as an epoch-reclamation reader for the
// duration: spill files retired by a compaction or retention pass that
// starts after the pin sit in limbo — not deleted — until the replay
// finishes, so replayPinned's vanished-file retry is a fallback (for
// retirements that began before the pin), not the mechanism.
func (t *Tracker) replaySealed(sink StampSink, from, to int) (int, error) {
	rec := t.reclaim.register()
	rec.pin(&t.reclaim)
	defer t.reclaim.unregister(rec)
	defer rec.unpin()
	return t.replayPinned(sink, from, to)
}

// replayPinned is replaySealed for a caller that holds its own pinned
// reclamation record. The segment list is snapshotted without the write
// barrier; when a spill file vanishes before it is opened — the signature
// of a concurrent compaction retiring it — the replay re-snapshots and
// retries, since the merged replacement covers the same records. A segment
// that stays unreadable across retries (a spill file genuinely lost) is an
// error, and so is a replay point below the retention floor.
func (t *Tracker) replayPinned(sink StampSink, from, to int) (int, error) {
	delivered := from
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
// MVCLOG03 log (the WriteLogDelta wire format, readable by tlog.ReadAll and
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
