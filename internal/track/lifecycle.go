// Segment lifecycle management. Sealing (stream.go) turns the merged tail
// into immutable delta-encoded segments; this file manages those segments
// for the rest of their lives:
//
//   - Tiered compaction rewrites runs of adjacent small segments into
//     larger ones (tlog.MergeSegments), so a tracker that seals frequently
//     — aligned intervals, wall-time flushes — does not drown its spill
//     directory in tiny files, and re-reading sealed history stays one
//     header and one sync point per thread instead of hundreds. Compaction
//     moves records between containers without changing a single one:
//     replay, Snapshot, SnapshotTo bytes and lazy stamps are all invariant
//     under it.
//   - The catalog is the read-only view external log shippers poll: which
//     segments exist, their epochs, index ranges, sizes, spill files and
//     content hashes, plus the tracker's health. With a spill directory it
//     is also published as catalog.json (atomic rename) after every seal
//     and compaction, so shippers never touch the tracker at all.
//
// Locking: segments are immutable and their list is append-only outside
// the compaction gate, so compaction does all its I/O — reading the run,
// writing the merged container — with no lock held, and the swap itself is
// the atomic publication of a new segState snapshot (swapHist): no world
// barrier, so commits never notice a compaction at all. Spill files are
// removed only after the swapped-in catalog generation stops listing them,
// and the removal goes through the epoch-based reclaimer (epoch.go): a
// pinned reader — a sealed replay — holds the deletion in limbo until it
// passes. A Stream caught on a file whose
// retirement predates its pin retries against the fresh list (stream.go).
package track

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"time"

	"mixedclock/internal/tlog"
	"mixedclock/internal/vfs"
)

// CompactPolicy is the tiered-compaction knob set (see
// tlog.PlanSegmentCompaction for the planning rules):
//
//   - MaxSegments is how many sealed segments the tracker tolerates. The
//     automatic pass (Store.Compact) runs after a seal pushes the count
//     above it; an explicit CompactSegments with MaxSegments > 0 plans
//     nothing while the count is at or below it, and with MaxSegments <= 0
//     compacts unconditionally.
//   - TargetBytes is the tier ceiling: a segment at or above it has
//     graduated and is left alone, and a merged group never exceeds it.
//     Zero (or negative) merges each epoch's run into one segment.
//
// Compaction is best-effort: runs never cross an epoch boundary, so the
// floor is one segment per epoch, and a small TargetBytes can leave more
// than MaxSegments standing until later seals grow the tiers.
type CompactPolicy struct {
	MaxSegments int
	TargetBytes int64
}

// CompactSegments runs one tiered-compaction pass over the sealed history
// under the given policy and reports how many segments the pass eliminated
// (zero when nothing qualified, or when another pass already holds the
// gate). Merging happens outside every lock — segments are immutable — and
// the rewritten entries are swapped in under one short barrier; replaced
// spill files are deleted only after the new catalog generation is
// published, and readers caught on a deleted file retry against the merged
// replacement. Replay is byte-for-byte invariant: SnapshotTo emits
// identical output before and after.
func (t *Tracker) CompactSegments(p CompactPolicy) (eliminated int, err error) {
	if t.closed.Load() {
		return 0, fmt.Errorf("track: CompactSegments on a closed Tracker")
	}
	if !t.compactGate.TryLock() {
		return 0, nil
	}
	defer t.compactGate.Unlock()
	return t.compactSegmentsLocked(p, math.MaxInt)
}

// compactSegmentsLocked is one compaction pass over the sealed segments
// that end at or below upTo. The caller holds compactGate.
func (t *Tracker) compactSegmentsLocked(p CompactPolicy, upTo int) (eliminated int, err error) {
	snap := sealedPrefix(t.hist.Load().segs, upTo)
	stats := make([]tlog.SegmentStat, len(snap))
	for i, sg := range snap {
		stats[i] = tlog.SegmentStat{Meta: sg.meta, Bytes: sg.size}
	}
	plan := tlog.PlanSegmentCompaction(stats, p.MaxSegments, p.TargetBytes)
	if len(plan) == 0 {
		return 0, nil
	}

	// Merge each planned run with no lock held. On any failure, unwind the
	// merged files written so far: the tracker still points at the originals.
	merged := make([]*segment, len(plan))
	for gi, g := range plan {
		sg, err := t.mergeRun(snap[g[0]:g[1]])
		if err != nil {
			for _, m := range merged[:gi] {
				if m != nil && m.file != "" {
					t.fs.Remove(m.path())
				}
			}
			return 0, fmt.Errorf("track: compacting segments: %w", err)
		}
		merged[gi] = sg
	}

	// Swap with no barrier: publish a new immutable snapshot derived from
	// the current one. The gate is ours, so the list can only have grown at
	// the tail since the snapshot (seals append); the planned prefix is
	// unchanged. Commits never see the swap at all.
	t.swapHist(func(old *segState) *segState {
		newSegs := make([]*segment, 0, len(old.segs)-len(plan))
		prev := 0
		for gi, g := range plan {
			newSegs = append(newSegs, old.segs[prev:g[0]]...)
			newSegs = append(newSegs, merged[gi])
			prev = g[1]
		}
		newSegs = append(newSegs, old.segs[prev:]...)
		return &segState{segs: newSegs, retained: old.retained, gen: old.gen + 1}
	})

	// Publish the generation that stops listing the old files, then retire
	// them through the reclaimer: the files are deleted once no pinned
	// reader (an in-flight commit or sealed replay) can still be holding
	// the superseded list — immediately, when the tracker is quiescent.
	t.publishCatalog()
	for _, g := range plan {
		for _, sg := range snap[g[0]:g[1]] {
			if sg.file != "" {
				old := sg
				t.reclaim.retire(func() { t.fs.Remove(old.path()) })
			}
			eliminated++
		}
	}
	t.compactPasses.Add(1)
	t.compactedSegs.Add(int64(eliminated - len(plan)))
	return eliminated - len(plan), nil
}

// sealedPrefix returns the leading segments of segs that end at or below
// upTo: the sealed history as of the seal that ended there.
func sealedPrefix(segs []*segment, upTo int) []*segment {
	n := sort.Search(len(segs), func(i int) bool {
		return segs[i].meta.FirstIndex+segs[i].meta.Count > upTo
	})
	return segs[:n]
}

// mergeRun rewrites one gapless single-epoch run of segments as a single
// segment, spilled next to its sources when the tracker spills.
func (t *Tracker) mergeRun(run []*segment) (*segment, error) {
	srcs := make([]io.Reader, len(run))
	for i, sg := range run {
		rc, err := sg.open()
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		srcs[i] = rc
	}
	var buf bytes.Buffer
	meta, err := tlog.MergeSegments(&buf, srcs...)
	if err != nil {
		return nil, err
	}
	data := buf.Bytes()
	sum := sha256.Sum256(data)
	out := &segment{meta: meta, size: int64(len(data)), sha: hex.EncodeToString(sum[:])}
	// The merged segment inherits the newest source's seal time: retention's
	// MaxAge is about how stale the newest contained event may be.
	for _, sg := range run {
		if sg.sealedAt.After(out.sealedAt) {
			out.sealedAt = sg.sealedAt
		}
	}
	if t.dir == "" {
		out.data = data
		return out, nil
	}
	// Write-then-rename (with an fsync) so a crash mid-compaction never
	// leaves a spill file that parses as a truncated segment.
	out.dir, out.file, out.fs = t.dir, tlog.SegmentFileName(meta), t.fs
	if err := writeFileSync(t.fs, out.dir, out.file, data); err != nil {
		return nil, err
	}
	return out, nil
}

// Catalog returns the read-only segment catalog: sealed history segment by
// segment (epoch, index range, size, spill path relative to the spill
// directory, content hash) plus the tracker's health — Err's text and
// whether auto-sealing is currently disarmed by a spill failure. The
// generation changes exactly when the segment list does. With a spill
// directory, the same document is kept on disk as catalog.json (rewritten
// by atomic rename after every seal and compaction), which is what external
// log shippers should poll instead of calling into the tracker.
func (t *Tracker) Catalog() tlog.Catalog {
	// The segment list, floor and generation come from one immutable
	// snapshot; the resume manifest and seal point are read under a shard
	// read lock, which excludes the seal barrier (the only writer of both),
	// so the two reads are mutually consistent.
	t.world.RLock(0)
	st := t.hist.Load()
	sealedEnd := t.tailStart
	resume := t.resume
	t.world.RUnlock(0)
	gen := st.gen
	retained := st.retained
	segs := make([]tlog.CatalogSegment, len(st.segs))
	for i, sg := range st.segs {
		var sealedUnix int64
		if !sg.sealedAt.IsZero() {
			sealedUnix = sg.sealedAt.Unix()
		}
		segs[i] = tlog.CatalogSegment{
			Epoch:      sg.meta.Epoch,
			FirstIndex: sg.meta.FirstIndex,
			Events:     sg.meta.Count,
			Bytes:      sg.size,
			Path:       sg.file,
			SHA256:     sg.sha,
			SealedUnix: sealedUnix,
		}
	}
	c := tlog.Catalog{
		FormatVersion:    tlog.CatalogFormatVersion,
		Generation:       gen,
		SealedEvents:     sealedEnd,
		RetainedEvents:   retained,
		AutoSealDisarmed: t.sealBroken.Load(),
		Closed:           t.closed.Load(),
		Segments:         segs,
		Resume:           resume,
	}
	if ns := t.degradedSince.Load(); ns != 0 {
		c.DegradedSinceUnix = ns / int64(time.Second)
	}
	if err := t.Err(); err != nil {
		c.Health = err.Error()
	}
	return c
}

// publishCatalog rewrites catalog.json in the spill directory (atomic
// rename; no-op without one). Failures surface through Err — the catalog is
// advisory for shippers, never load-bearing for the tracker itself.
func (t *Tracker) publishCatalog() {
	if t.dir == "" {
		return
	}
	t.catMu.Lock()
	defer t.catMu.Unlock()
	c := t.Catalog()
	if err := writeCatalogFile(t.fs, t.dir, &c); err != nil {
		t.noteErr(fmt.Errorf("track: publishing catalog: %w", err))
	}
}

// CatalogFileName is the catalog's file name inside a spill directory.
const CatalogFileName = tlog.CatalogFileName

// writeCatalogFile publishes one catalog generation (temp file, fsync,
// rename), retrying transient failures as one whole cycle like every other
// durable write.
func writeCatalogFile(fsys vfs.FS, dir string, c *tlog.Catalog) error {
	return retryTransient(func() error { return writeCatalogFileOnce(fsys, dir, c) })
}

func writeCatalogFileOnce(fsys vfs.FS, dir string, c *tlog.Catalog) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, ".catalog-*.tmp")
	if err != nil {
		return err
	}
	if err := tlog.EncodeCatalog(tmp, c); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	// Keep the outgoing generation as catalog.json.prev before the rename
	// replaces it: the rename is atomic against our own crashes, but a
	// power cut can still tear it at the filesystem level, and recovery
	// then falls back to the prev copy. Best effort — a missing or stale
	// prev only degrades the fallback, never the catalog itself.
	cur := filepath.Join(dir, CatalogFileName)
	if data, rerr := vfs.ReadFile(fsys, cur); rerr == nil {
		_ = vfs.WriteFile(fsys, filepath.Join(dir, tlog.CatalogPrevFileName), data)
	}
	return fsys.Rename(tmp.Name(), cur)
}
