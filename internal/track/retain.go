// Segment retention: the index-based pruning half of the durability story.
// Sealed segments accumulate forever without it; RetainSegments retires the
// oldest ones — deleting or archiving their files — once they age out or
// push the directory over a size budget, with the same generation-bumped
// publish-before-delete discipline compaction uses.
//
// Only *graduated* segments are eligible: segments whose epoch is closed
// (epoch < the tracker's current epoch). Recovery replays exactly the
// current epoch's segments to rebuild the live clocks, so a graduated
// segment is provably never load-bearing for a reopen — retirement can
// never strand a run. Retirement is also strictly a prefix: sealed history
// stays gapless above the published retention floor (Catalog.
// RetainedEvents), and everything that replays history — Stream, Snapshot,
// SnapshotTo, lazy stamps — starts at the floor.
package track

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"mixedclock/internal/vfs"
)

// RetainPolicy bounds how much sealed history a tracker keeps. Set as
// Store.Retain, it runs after every successful seal (and the compaction
// pass, if any). The zero policy retains everything.
type RetainPolicy struct {
	// MaxAge, when positive, retires a graduated segment once its seal
	// time (the newest contained event's seal, surviving reopen via the
	// catalog) is older than this.
	MaxAge time.Duration
	// MaxBytes, when positive, is the sealed-history size budget: while
	// the total exceeds it, graduated segments are retired oldest first.
	// The current epoch's segments never count as retirable, so the
	// budget can be exceeded until a Compact closes the epoch.
	MaxBytes int64
	// Archive, when non-empty, moves retired spill files into this
	// directory instead of deleting them (created on first use). In-memory
	// segments are always simply dropped.
	Archive string
}

// enabled reports whether the policy can ever retire anything.
func (p RetainPolicy) enabled() bool { return p.MaxAge > 0 || p.MaxBytes > 0 }

// RetainSegments runs one retention pass under the given policy and reports
// how many segments it retired (zero when nothing qualified, or when a
// compaction or retention pass already holds the gate). Only graduated
// segments — closed epochs, never the current one — are eligible, and only
// as a gapless prefix of sealed history: replay above the new floor, and
// any future reopen, are unaffected. The swapped-out files are deleted (or
// moved to p.Archive) only after the catalog generation that stops listing
// them is published, mirroring compaction's ordering, and the deletion runs
// through the epoch-based reclaimer: a pinned reader delays it, a quiescent
// tracker performs it before RetainSegments returns. A failure deleting or
// archiving an individual file surfaces through Err, not the return value —
// the retention pass itself has already taken effect.
func (t *Tracker) RetainSegments(p RetainPolicy) (retired int, err error) {
	if t.closed.Load() {
		return 0, fmt.Errorf("track: RetainSegments on a closed Tracker")
	}
	if !p.enabled() {
		return 0, nil
	}
	// Retention shares the compaction gate: both rewrite the sealed-segment
	// prefix, and the gate is what guarantees the snapshot below can only
	// have grown — never been reshuffled — by swap time.
	if !t.compactGate.TryLock() {
		return 0, nil
	}
	defer t.compactGate.Unlock()
	return t.retainSegmentsLocked(p, math.MaxInt, t.Epoch())
}

// retainSegmentsLocked is one retention pass over the sealed segments that
// end at or below upTo, with the segments of epochs below epoch graduated.
// The caller holds compactGate.
func (t *Tracker) retainSegmentsLocked(p RetainPolicy, upTo, epoch int) (retired int, err error) {
	snap := sealedPrefix(t.hist.Load().segs, upTo)

	var total int64
	for _, sg := range snap {
		total += sg.size
	}
	now := time.Now()
	k := 0
	for k < len(snap) && snap[k].meta.Epoch < epoch {
		aged := p.MaxAge > 0 && !snap[k].sealedAt.IsZero() && now.Sub(snap[k].sealedAt) > p.MaxAge
		over := p.MaxBytes > 0 && total > p.MaxBytes
		if !aged && !over {
			break
		}
		total -= snap[k].size
		k++
	}
	if k == 0 {
		return 0, nil
	}
	dropped := snap[:k]
	floor := dropped[k-1].meta.FirstIndex + dropped[k-1].meta.Count

	// Swap with no barrier: publish a new immutable snapshot. The gate is
	// ours, so the list can only have grown at the tail since the snapshot;
	// the dropped prefix is unchanged.
	t.swapHist(func(old *segState) *segState {
		return &segState{
			segs:     append([]*segment(nil), old.segs[k:]...),
			retained: floor,
			gen:      old.gen + 1,
		}
	})

	// Publish the generation that stops listing the retired files, then
	// retire them through the reclaimer: deletion (or archival) waits out
	// any pinned reader still holding the superseded list, and runs
	// immediately when the tracker is quiescent. A file-retirement failure
	// surfaces through Err — the pass itself already succeeded.
	t.publishCatalog()
	for _, sg := range dropped {
		if sg.file == "" {
			continue
		}
		old := sg
		t.reclaim.retire(func() {
			if p.Archive != "" {
				if aerr := archiveFile(t.fs, old.path(), p.Archive, old.file); aerr != nil {
					t.noteErr(fmt.Errorf("track: archiving %s: %w", old.file, aerr))
				}
			} else if rerr := t.fs.Remove(old.path()); rerr != nil {
				t.noteErr(fmt.Errorf("track: retiring %s: %w", old.file, rerr))
			}
		})
	}
	t.retainPasses.Add(1)
	t.retiredSegs.Add(int64(k))
	return k, nil
}

// archiveFile moves src into dir/name, falling back to copy-then-remove
// when the rename crosses filesystems.
func archiveFile(fsys vfs.FS, src, dir, name string) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return err
	}
	dst := filepath.Join(dir, name)
	if err := fsys.Rename(src, dst); err == nil {
		return nil
	}
	in, err := fsys.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := fsys.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		fsys.Remove(dst)
		return err
	}
	if err := out.Close(); err != nil {
		fsys.Remove(dst)
		return err
	}
	return fsys.Remove(src)
}
