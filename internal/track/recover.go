// Crash recovery: rebuilding a live Tracker from a spill directory.
//
// The durable state of a run is the last published catalog generation plus
// the immutable segment files it lists; everything else — live per-thread
// buffers, the merged tail, seals whose catalog publication never landed —
// is the unsealed suffix a crash loses. recoverDir turns that contract into
// a Tracker: it loads the catalog (falling back to catalog.json.prev when
// the current one is torn), verifies every listed segment — file size and
// SHA-256 against the catalog, the header against the listing, and a scan
// of every record that runs each check a full decode runs without
// rebuilding stamps — quarantines (never deletes, never panics on) whatever
// disagrees, and reconstructs the in-memory state the next commit needs.
//
// Two recovery modes, chosen by how much survived:
//
//   - Resume (mode A): the catalog carries a resume manifest and every
//     listed segment verified. The run continues in the same epoch: the
//     component cover is re-seeded from the manifest, threads and objects
//     re-register under their recorded names, and their clocks are rebuilt
//     from their last records in the current epoch — a record's stamp IS
//     the thread's clock (and the object's clock) immediately after that
//     event, so the last stamp per thread and per object is exactly the
//     state a crashed tracker held for its sealed prefix. The scan tells
//     which segment holds each last record, and only those segments are
//     decoded in full, usually just the newest: a segment decodes without
//     outside state, so Open costs a parse of every record plus one
//     segment's stamps at O(width) each, whether or not the run compacted.
//   - New epoch (mode B): a listed segment was damaged (the verified prefix
//     is kept, the rest quarantined) or the manifest is missing or
//     unusable. Replaying clocks across the cut would invent causality, so
//     recovery instead starts the next epoch at the resumed index: epoch
//     boundaries already mean "all clocks restart from zero" (Compact's
//     barrier semantics), which makes zeroed clocks sound — cross-epoch
//     comparisons coarsen to epoch order exactly as after a Compact.
//
// Orphan spill files (a seal that crashed before its catalog publication)
// are quarantined without forcing mode B: the listed history is intact, the
// orphan was never part of it.
package track

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/vclock"
	"mixedclock/internal/vfs"
)

// RecoveryInfo reports what Open reconstructed from its directory.
type RecoveryInfo struct {
	// Events is the resumed sealed event count: the next commit gets trace
	// index Events.
	Events int
	// Epoch is the epoch committing resumes in. It equals the crashed run's
	// epoch when the resume manifest and every listed segment survived, and
	// the next epoch otherwise (damage starts a fresh epoch, exactly like a
	// Compact).
	Epoch int
	// RetainedFloor is the restored retention floor (Catalog.RetainedEvents).
	RetainedFloor int
	// Segments is how many listed segments verified and were adopted.
	Segments int
	// Generation is the catalog generation published by the reopen itself.
	Generation int64
	// CleanClose reports that the previous run ended in Close rather than a
	// crash.
	CleanClose bool
	// UsedPrevCatalog reports that catalog.json was torn and recovery fell
	// back to the catalog.json.prev copy.
	UsedPrevCatalog bool
	// Quarantined lists the files set aside (renamed with
	// tlog.QuarantineSuffix): damaged listed segments and everything sealed
	// after them, orphan spill files, a torn catalog.
	Quarantined []string
}

// recoverDir rebuilds t's state from its spill directory. It is called once,
// from Open, before the tracker is shared — no locks are contended. Damage
// is downgraded to quarantine + health, never an error; the only errors are
// ones that leave recovery unable to construct any consistent state at all.
func (t *Tracker) recoverDir(o options) error {
	dir := t.dir
	info := &RecoveryInfo{}
	t.recovery = info

	// A crash mid-write leaves at most stray temp files (every durable write,
	// or a degraded-mode probe; ".catalog-*.tmp" is what catalog publishes
	// of earlier versions left); sweep them first so they never accumulate.
	for _, pat := range []string{".seg-*.tmp", ".catalog-*.tmp", ".probe-*.tmp"} {
		if ms, err := vfs.Glob(t.fs, dir, pat); err == nil {
			for _, m := range ms {
				t.fs.Remove(m)
			}
		}
	}

	// A catalog.json that exists but does not decode is torn: set it aside,
	// whether or not the .prev copy stands in for it.
	cat, usedPrev, err := tlog.ReadCatalog(t.fs, dir)
	var quarantined []string
	if usedPrev || err != nil && !errors.Is(err, fs.ErrNotExist) {
		if q := quarantineFile(t.fs, filepath.Join(dir, tlog.CatalogFileName)); q != "" {
			quarantined = append(quarantined, q)
		}
	}
	info.UsedPrevCatalog = usedPrev
	if cat == nil {
		// No usable catalog. Any segment file present is history we cannot
		// anchor (no index ranges, no hashes, no epoch bookkeeping): set it
		// aside rather than guess, and start fresh.
		if ms, err := vfs.Glob(t.fs, dir, "*.mvcseg"); err == nil {
			for _, m := range ms {
				if q := quarantineFile(t.fs, m); q != "" {
					quarantined = append(quarantined, q)
				}
			}
		}
		info.Quarantined = quarantined
		if len(quarantined) == 0 {
			return nil // genuinely fresh directory; created on first seal
		}
		t.noteErr(fmt.Errorf("track: recovering %s: no usable catalog; quarantined %s",
			dir, strings.Join(quarantined, ", ")))
		t.swapHist(func(old *segState) *segState {
			return &segState{segs: old.segs, retained: old.retained, gen: old.gen + 1}
		})
		t.publishCatalog()
		return nil
	}

	resume := cat.Resume
	resumeEpoch := -1
	if resume != nil {
		resumeEpoch = resume.Epoch
	}

	// Verify the listed segments in order, collecting along the way what the
	// rebuild needs: every revealed (thread, object) edge, the largest IDs
	// seen, and — for segments of the resume epoch — which segment holds
	// each thread's and each object's last record. The scan checks every
	// record but rebuilds no stamp; the clocks are materialized afterwards
	// from those last segments alone. The edge rows are dense and reused,
	// so the scan allocates only as the ID ranges grow.
	maxThread, maxObject := -1, -1
	var edgeSeen [][]uint64
	var edges [][2]int
	var lastRecs lastRecords

	goodN := len(cat.Segments)
	damaged := false
	for i := range cat.Segments {
		entry := cat.Segments[i]
		inEpoch := entry.Epoch == resumeEpoch
		data, err := tlog.VerifySegment(t.fs, dir, entry, func(e event.Event) {
			ti, oi := int(e.Thread), int(e.Object)
			if ti > maxThread {
				maxThread = ti
			}
			if oi > maxObject {
				maxObject = oi
			}
			edgeSeen = growTo(edgeSeen, ti)
			row := growTo(edgeSeen[ti], oi>>6)
			edgeSeen[ti] = row
			if bit := uint64(1) << (oi & 63); row[oi>>6]&bit == 0 {
				row[oi>>6] |= bit
				edges = append(edges, [2]int{ti, oi})
			}
			if inEpoch {
				lastRecs.note(e, i)
			}
		})
		if err != nil {
			t.noteErr(fmt.Errorf("track: recovering %s: %w", dir, err))
			goodN, damaged = i, true
			break
		}
		if inEpoch {
			lastRecs.keep(i, data)
		}
	}
	if damaged {
		// The verified prefix is kept; the damaged segment and everything
		// sealed after it (gapless history cannot skip it) are set aside.
		for _, entry := range cat.Segments[goodN:] {
			if entry.Path == "" {
				continue
			}
			if q := quarantineFile(t.fs, filepath.Join(dir, entry.Path)); q != "" {
				quarantined = append(quarantined, q)
			}
		}
	}

	// Orphan spill files — a seal that crashed between its rename and its
	// catalog publication — are part of the lost unsealed suffix: quarantine
	// them, without giving up the (intact) listed history.
	listed := make(map[string]bool, goodN)
	for _, entry := range cat.Segments[:goodN] {
		listed[entry.Path] = true
	}
	if ms, err := vfs.Glob(t.fs, dir, "*.mvcseg"); err == nil {
		for _, m := range ms {
			if listed[filepath.Base(m)] {
				continue
			}
			if q := quarantineFile(t.fs, m); q != "" {
				quarantined = append(quarantined, q)
			}
		}
	}

	// P is the resumed sealed extent: the next commit's trace index.
	P := cat.RetainedEvents
	if goodN > 0 {
		last := cat.Segments[goodN-1]
		P = last.FirstIndex + last.Events
	}

	// Mode A needs the manifest, an undamaged listing, and replayed IDs that
	// fit the manifest's name tables (they always do for catalogs this
	// package wrote — the manifest is captured at every seal).
	resumeUsable := resume != nil && !damaged
	if resumeUsable && (maxThread >= len(resume.Threads) || maxObject >= len(resume.Objects)) {
		resumeUsable = false
	}

	// In mode A, rebuild each thread's and object's last stamp from the
	// segments that hold one. They were scanned moments ago, so a decode
	// failure here is not damage on disk; it still must not resume clocks
	// it could not rebuild, so the run starts the next epoch instead.
	var threadLast, objectLast []vclock.Vector
	if resumeUsable {
		if threadLast, objectLast, err = lastRecs.materialize(); err != nil {
			t.noteErr(fmt.Errorf("track: recovering %s: rebuilding clocks: %w", dir, err))
			resumeUsable = false
		}
	}

	// Registration tables: the manifest's names, extended (mode B without a
	// manifest) to cover whatever IDs the replay revealed.
	var threadNames, objectNames []string
	if resume != nil {
		threadNames = append(threadNames, resume.Threads...)
		objectNames = append(objectNames, resume.Objects...)
	}
	for len(threadNames) <= maxThread {
		threadNames = append(threadNames, fmt.Sprintf("thread-%d", len(threadNames)))
	}
	for len(objectNames) <= maxObject {
		objectNames = append(objectNames, fmt.Sprintf("object-%d", len(objectNames)))
	}

	// The revealed graph is cumulative across epochs: manifest edges plus
	// whatever the replay saw (a subset of the manifest when it is current).
	g := bipartite.New(len(threadNames), len(objectNames))
	if resume != nil {
		for _, e := range resume.Edges {
			g.AddEdge(e[0], e[1])
		}
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}

	// Cover: re-seed from the manifest's ordered component set (its positions
	// are the vector indices every replayed stamp was written against); fall
	// back to a fresh offline analysis — which forces mode B, since old
	// stamps are meaningless over a reordered component set.
	var seeded *core.CoverTracker
	if resumeUsable {
		comps := core.NewComponentSet()
		for _, rc := range resume.Components {
			side := bipartite.Objects
			if rc.Kind == tlog.ResumeThread {
				side = bipartite.Threads
			}
			comps.Add(core.Component{Side: side, ID: rc.ID})
		}
		ct, err := core.NewSeededCoverTracker(o.mech, g, comps)
		if err != nil {
			t.noteErr(fmt.Errorf("track: recovering %s: resume components unusable: %w", dir, err))
			resumeUsable = false
		} else {
			seeded = ct
		}
	}
	if seeded == nil {
		analysis := core.Analyze(g)
		ct, err := core.NewSeededCoverTracker(o.mech, analysis.Graph, analysis.Components)
		if err != nil {
			return fmt.Errorf("track: recovering %s: seeding cover: %w", dir, err)
		}
		seeded = ct
	}
	t.cover.Store(core.NewSharedCover(seeded))

	// Epoch bookkeeping.
	var epoch int
	var epochStarts []int
	switch {
	case resumeUsable:
		epoch = resume.Epoch
		epochStarts = append([]int(nil), resume.EpochStarts...)
	case resume != nil:
		// Damage cut the manifest's epoch short: start the next one at the
		// cut. Starts past the cut clamp to it (their epochs lost all their
		// sealed events).
		epoch = resume.Epoch + 1
		for _, s := range resume.EpochStarts {
			if s > P {
				s = P
			}
			epochStarts = append(epochStarts, s)
		}
		epochStarts = append(epochStarts, P)
	case goodN > 0:
		// No manifest at all: derive epoch boundaries from the segments
		// themselves (each declares its epoch) and start the epoch after the
		// newest one. Epochs wholly below the retention floor keep only an
		// approximate start — their events are retired anyway.
		maxE := cat.Segments[goodN-1].Epoch
		epoch = maxE + 1
		si := 0
		for j := 1; j <= maxE; j++ {
			for si < goodN && cat.Segments[si].Epoch < j {
				si++
			}
			if si < goodN {
				epochStarts = append(epochStarts, cat.Segments[si].FirstIndex)
			} else {
				epochStarts = append(epochStarts, P)
			}
		}
		epochStarts = append(epochStarts, P)
	}
	t.epoch = epoch
	t.epochStart = epochStarts

	// Re-register threads and objects under their recorded names (dense IDs
	// are positions, so registration order restores them) and, in mode A,
	// restore their clocks from the rebuilt stamps. A thread or object with
	// no event in the resumed epoch's sealed prefix stays nil — exactly the
	// state Compact's reset leaves.
	for _, name := range threadNames {
		th := t.NewThread(name)
		if v := at(threadLast, int(th.id)); v != nil && resumeUsable {
			th.clock = v
		}
	}
	for _, name := range objectNames {
		ob := t.NewObject(name)
		if v := at(objectLast, int(ob.id)); v != nil && resumeUsable {
			ob.clock = v
		}
	}

	// Adopt the verified segments and the counters.
	segs := make([]*segment, 0, goodN)
	for _, entry := range cat.Segments[:goodN] {
		sg := &segment{
			meta: tlog.SegmentMeta{Epoch: entry.Epoch, FirstIndex: entry.FirstIndex, Count: entry.Events},
			dir:  dir,
			file: entry.Path,
			fs:   t.fs,
			size: entry.Bytes,
			sha:  entry.SHA256,
		}
		if entry.SealedUnix > 0 {
			sg.sealedAt = time.Unix(entry.SealedUnix, 0)
		}
		segs = append(segs, sg)
	}
	t.tailStart = P
	t.seq.Store(int64(P))
	t.woven.Store(int64(P))
	t.sealed.Store(int64(P))
	retained := cat.RetainedEvents
	if retained > P {
		retained = P
	}
	// The tracker is not shared yet, so the snapshot can be stored
	// directly; the generation picks up where the recovered catalog left
	// off and is bumped below to announce the reopened run.
	t.hist.Store(&segState{segs: segs, retained: retained, gen: cat.Generation})

	info.Events = P
	info.Epoch = epoch
	info.RetainedFloor = retained
	info.Segments = goodN
	info.CleanClose = cat.Closed
	info.Quarantined = quarantined
	if len(quarantined) > 0 {
		t.noteErr(fmt.Errorf("track: recovering %s: quarantined %s", dir, strings.Join(quarantined, ", ")))
	}

	// Announce the reopened run: a fresh manifest, a new generation, no
	// Closed marker. The tracker is not shared yet, so the write-lock
	// precondition of the capture holds trivially.
	t.captureResumeLocked()
	st := t.swapHist(func(old *segState) *segState {
		return &segState{segs: old.segs, retained: old.retained, gen: old.gen + 1}
	})
	t.publishCatalog()
	info.Generation = st.gen
	_ = syncDir(t.fs, dir)
	return nil
}

// lastRecords tracks, while recovery scans the resume epoch, where each
// thread's and each object's last record lies, and keeps the bytes of just
// the segments that still hold one. A segment decodes without outside
// state — each thread's first record in it is full — so those segments
// alone rebuild every clock: usually only the newest, whatever the epoch's
// length.
type lastRecords struct {
	thread, object []recordAt
	// data[i] is segment i's container while refs[i], the number of
	// threads and objects whose last record it holds, is positive.
	data [][]byte
	refs []int
}

// recordAt locates one record: its segment's position in the catalog plus
// one (zero for no record) and its trace index.
type recordAt struct {
	seg, index int
}

// note records e, read from segment seg, as its thread's and its object's
// last record so far.
func (l *lastRecords) note(e event.Event, seg int) {
	l.refs = growTo(l.refs, seg)
	l.thread = l.move(l.thread, int(e.Thread), seg, e.Index)
	l.object = l.move(l.object, int(e.Object), seg, e.Index)
}

// move makes the record at index in segment seg the last of id in at,
// moving its reference from the segment that held id's last record before.
func (l *lastRecords) move(at []recordAt, id, seg, index int) []recordAt {
	at = growTo(at, id)
	if old := at[id].seg - 1; old != seg {
		if old >= 0 {
			l.refs[old]--
		}
		l.refs[seg]++
	}
	at[id] = recordAt{seg: seg + 1, index: index}
	return at
}

// keep retains segment seg's container if it holds a last record, and
// drops the earlier ones that no longer do.
func (l *lastRecords) keep(seg int, data []byte) {
	l.data = growTo(l.data, seg)
	l.data[seg] = data
	for i := range l.data {
		if i < len(l.refs) && l.refs[i] == 0 {
			l.data[i] = nil
		}
	}
}

// materialize decodes the kept segments and returns every thread's and
// object's stamp at its last record, nil for one with no record.
func (l *lastRecords) materialize() (threads, objects []vclock.Vector, err error) {
	threads = make([]vclock.Vector, len(l.thread))
	objects = make([]vclock.Vector, len(l.object))
	for i, data := range l.data {
		if data == nil {
			continue
		}
		sr, err := tlog.NewSegmentReaderBytes(data)
		if err != nil {
			return nil, nil, err
		}
		for {
			e, v, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, err
			}
			if ti := int(e.Thread); l.thread[ti] == (recordAt{seg: i + 1, index: e.Index}) {
				threads[ti] = v.Clone()
			}
			if oi := int(e.Object); l.object[oi] == (recordAt{seg: i + 1, index: e.Index}) {
				objects[oi] = v.Clone()
			}
		}
	}
	return threads, objects, nil
}

// quarantineFile renames path aside with tlog.QuarantineSuffix, returning
// the resulting base name ("" when the rename failed — the file then stays
// where it is, still ignored by glob-based readers only if a later pass
// succeeds, so callers report the failure through health).
func quarantineFile(fsys vfs.FS, path string) string {
	q := path + tlog.QuarantineSuffix
	if err := fsys.Rename(path, q); err != nil {
		return ""
	}
	return filepath.Base(q)
}

// growTo extends s with zero values, if needed, so that index i is valid.
func growTo[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// at returns s[i], or nil past the end of s.
func at(s []vclock.Vector, i int) vclock.Vector {
	if i < len(s) {
		return s[i]
	}
	return nil
}
