package tlog

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"path/filepath"
	"time"

	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
	"mixedclock/internal/vfs"
)

// DirCursor follows the sealed history of a spill directory from outside
// the owning process: it re-reads catalog.json on every Poll, opens any
// newly published segments, and delivers their records in trace order with
// epoch provenance. That is how `mvc detect -live -dir` attaches to a
// running (or recovered, or cleanly closed) store without sharing memory
// with it — the catalog's atomic rename publication makes every read a
// consistent snapshot.
//
// The cursor is resilient to concurrent lifecycle activity: if a segment
// file vanishes between reading the catalog and opening it (a compaction
// or retention pass retired it), Poll re-reads the catalog and retries; if
// the retention floor has passed the cursor's position, Poll skips forward
// and reports the gap. Records at or above the catalog's SealedEvents are
// never delivered — the in-memory tail is visible only to in-process
// monitors.
type DirCursor struct {
	// FS is the filesystem the directory is read through; nil means vfs.OS.
	FS vfs.FS

	dir  string
	next int
	gen  int64
	// skipped accumulates records lost to retention (floor passed us).
	skipped int
	// idle counts consecutive polls that made no progress — NextDelay's
	// backoff exponent, reset whenever records arrive or the catalog
	// generation advances.
	idle int
}

// dirCursorRetries bounds catalog re-reads when segment files vanish under
// a concurrent compaction/retention pass.
const dirCursorRetries = 3

// Follow-mode backoff bounds: an idle directory is polled at most every
// dirCursorMinDelay at first, decaying exponentially to dirCursorMaxDelay,
// so attaching to a quiet run costs a handful of stats per second, not a
// hot loop.
const (
	dirCursorMinDelay = 50 * time.Millisecond
	dirCursorMaxDelay = 2 * time.Second
)

// NewDirCursor returns a cursor positioned at trace index 0 of dir's run.
func NewDirCursor(dir string) *DirCursor {
	return &DirCursor{dir: dir, gen: -1}
}

// fsys returns the cursor's filesystem, defaulting to the real one.
func (c *DirCursor) fsys() vfs.FS {
	if c.FS != nil {
		return c.FS
	}
	return vfs.OS
}

// NextDelay returns how long a follower should sleep before the next Poll:
// bounded exponential backoff with jitter, growing while polls deliver
// nothing and the catalog generation stands still, snapping back to the
// minimum the moment anything happens. Call it after each Poll.
func (c *DirCursor) NextDelay() time.Duration {
	d := dirCursorMinDelay << c.idle
	if d > dirCursorMaxDelay || d <= 0 {
		d = dirCursorMaxDelay
	}
	// ±25% jitter keeps a fleet of followers from polling in lockstep.
	return d - d/4 + rand.N(d/2)
}

// Next returns the global trace index of the next undelivered record.
func (c *DirCursor) Next() int { return c.next }

// Skipped returns how many records were skipped because a retention pass
// retired them before the cursor got there.
func (c *DirCursor) Skipped() int { return c.skipped }

// Poll reads the current catalog and delivers every newly sealed record to
// fn in trace order. Vectors are borrowed (valid only during the call).
// It returns the catalog snapshot it worked from — nil if the directory
// has no catalog yet, which is not an error; a live tracker publishes its
// first one at the first seal — and the number of records delivered.
// fn returning an error aborts the poll; delivered records stay consumed.
func (c *DirCursor) Poll(fn func(e event.Event, epoch int, v vclock.Vector) error) (*Catalog, int, error) {
	delivered := 0
	for attempt := 0; ; attempt++ {
		cat, _, err := ReadCatalog(c.fsys(), c.dir)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				c.notePoll(delivered, c.gen)
				return nil, delivered, nil
			}
			return nil, delivered, err
		}
		if c.next < cat.RetainedEvents {
			c.skipped += cat.RetainedEvents - c.next
			c.next = cat.RetainedEvents
		}
		n, err := c.replay(cat, fn)
		delivered += n
		if err == nil {
			c.notePoll(delivered, cat.Generation)
			c.gen = cat.Generation
			return cat, delivered, nil
		}
		if errors.Is(err, fs.ErrNotExist) && attempt < dirCursorRetries {
			// The segment was retired between catalog read and open;
			// the next catalog generation describes its replacement.
			continue
		}
		return cat, delivered, err
	}
}

// notePoll feeds NextDelay's backoff: progress — delivered records or an
// advanced catalog generation — resets it, a fruitless poll deepens it.
func (c *DirCursor) notePoll(delivered int, gen int64) {
	if delivered > 0 || gen != c.gen {
		c.idle = 0
	} else if c.idle < 31 {
		c.idle++
	}
}

// replay walks cat's segments covering [c.next, SealedEvents) and streams
// their records.
func (c *DirCursor) replay(cat *Catalog, fn func(e event.Event, epoch int, v vclock.Vector) error) (int, error) {
	delivered := 0
	for _, seg := range cat.Segments {
		end := seg.FirstIndex + seg.Events
		if end <= c.next {
			continue
		}
		if seg.FirstIndex > c.next {
			return delivered, fmt.Errorf("tlog: catalog gap: next record %d but segment starts at %d", c.next, seg.FirstIndex)
		}
		if seg.Path == "" {
			return delivered, fmt.Errorf("tlog: segment %s [%d,%d) not spilled to disk; cannot follow from another process",
				SegmentFileName(SegmentMeta{Epoch: seg.Epoch, FirstIndex: seg.FirstIndex, Count: seg.Events}), seg.FirstIndex, end)
		}
		n, err := c.replaySegment(seg, fn)
		delivered += n
		if err != nil {
			return delivered, err
		}
	}
	return delivered, nil
}

// replaySegment opens one spill file and delivers its records from c.next
// on, advancing the cursor per record.
func (c *DirCursor) replaySegment(seg CatalogSegment, fn func(e event.Event, epoch int, v vclock.Vector) error) (int, error) {
	data, err := vfs.ReadFile(c.fsys(), filepath.Join(c.dir, filepath.FromSlash(seg.Path)))
	if err != nil {
		return 0, err
	}
	sr, err := NewSegmentReaderBytes(data)
	if err != nil {
		return 0, fmt.Errorf("tlog: %s: %w", seg.Path, err)
	}
	delivered := 0
	for {
		e, v, err := sr.Next()
		if err == io.EOF {
			return delivered, nil
		}
		if err != nil {
			return delivered, fmt.Errorf("tlog: %s: %w", seg.Path, err)
		}
		if e.Index < c.next {
			continue // already delivered on an earlier poll
		}
		if err := fn(e, seg.Epoch, v); err != nil {
			return delivered, err
		}
		c.next = e.Index + 1
		delivered++
	}
}
