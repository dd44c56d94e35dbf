// The unified store API: one coherent construction/lifecycle surface over
// the durability machinery.
//
//   - Store gathers every storage policy (spilling, tiered compaction,
//     retention) into one validated struct; WithStore is the only storage
//     option.
//   - Open(dir, opts...) is the only constructor and brackets the start of
//     a run: an empty dir is an in-memory tracker, an absent or empty
//     directory starts fresh, an existing one is recovered (recover.go) —
//     hashes verified, clocks rebuilt, a torn tail quarantined — and
//     committing resumes at the correct epoch and trace index.
//   - Tracker.Close brackets the end: seal the tail, publish a final
//     catalog generation marked Closed, fsync the directory.
//
// Crash-consistency contract. What survives a crash is exactly the last
// published catalog generation and the immutable segment files it lists;
// what is lost is the unsealed suffix — live per-thread buffers plus the
// merged tail — and any seal whose catalog publication had not landed
// (Open quarantines such orphan files rather than guessing). The fsync
// points: every segment file is synced before the rename that makes it
// visible, the catalog temp file is synced before the rename that
// publishes it, and Close syncs the directory itself so the renames are
// durable too.

package track

import (
	"fmt"
	"path/filepath"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/tlog"
	"mixedclock/internal/vfs"
)

// Store is the tracker's complete storage configuration: how history is
// sealed and spilled (Spill), how sealed segments are tier-compacted
// (Compact), and when old segments are retired (Retain). The zero Store
// keeps everything in memory.
type Store struct {
	Spill   SpillPolicy
	Compact CompactPolicy
	Retain  RetainPolicy
	// FS is the filesystem every durable path (sealing, catalog
	// publication, recovery, retention) runs on. Nil means vfs.OS — the
	// real filesystem through a zero-state passthrough. Tests substitute
	// vfs.Faulty to exercise the store under injected I/O errors and
	// crash points; the commit hot path never touches it.
	FS vfs.FS
}

// Validate checks the store's policies for contradictions a tracker would
// otherwise act on silently. Open rejects an invalid store, and also one
// whose RetainPolicy.Archive is the directory being opened.
func (s Store) Validate() error {
	if s.Spill.SealEvery < 0 {
		return fmt.Errorf("track: store: SealEvery %d is negative", s.Spill.SealEvery)
	}
	if s.Spill.SealInterval < 0 {
		return fmt.Errorf("track: store: SealInterval %v is negative", s.Spill.SealInterval)
	}
	if s.Spill.Probe < 0 {
		return fmt.Errorf("track: store: Probe %v is negative", s.Spill.Probe)
	}
	if s.Compact.MaxSegments < 0 {
		return fmt.Errorf("track: store: MaxSegments %d is negative", s.Compact.MaxSegments)
	}
	if s.Compact.TargetBytes < 0 {
		return fmt.Errorf("track: store: TargetBytes %d is negative", s.Compact.TargetBytes)
	}
	if s.Retain.MaxAge < 0 {
		return fmt.Errorf("track: store: RetainPolicy.MaxAge %v is negative", s.Retain.MaxAge)
	}
	if s.Retain.MaxBytes < 0 {
		return fmt.Errorf("track: store: RetainPolicy.MaxBytes %d is negative", s.Retain.MaxBytes)
	}
	if s.Retain.Archive != "" && !s.Retain.enabled() {
		return fmt.Errorf("track: store: RetainPolicy.Archive set but neither MaxAge nor MaxBytes is; nothing would ever be archived")
	}
	return nil
}

// WithStore sets the tracker's complete storage configuration; Open
// validates it.
func WithStore(s Store) Option {
	return func(o *options) { o.store = s }
}

// Open opens dir as a durable run and returns a live Tracker backed by it.
//
//   - An absent or empty directory starts a fresh run spilling there (dir
//     is created on first seal).
//   - A directory holding a catalog published by a previous run — whether
//     it ended in Close or in a crash — is recovered: every listed segment
//     is verified (size, SHA-256, full decode), the per-thread and
//     per-object clocks, component cover and epoch bookkeeping are rebuilt
//     from the catalog's resume manifest plus a replay of the current
//     epoch, and committing resumes at the next trace index. Use Threads
//     and Objects to reattach to the registered handles, and Recovery for
//     a report of what was reconstructed.
//   - Damage never panics and never fails the Open: a torn catalog falls
//     back to the previous generation (or, failing that, starts fresh), a
//     torn or hash-mismatched segment tail and any orphan spill files are
//     quarantined (renamed aside), and the loss is reported through
//     Recovery and Err — the crash-consistency contract is that at most
//     the unsealed (or unpublished) suffix is lost.
//
// An empty dir is an in-memory tracker: sealed segments stay in memory and
// there is nothing to recover. Open validates its options: an invalid
// Store, or a RetainPolicy.Archive naming dir itself, is an error.
func Open(dir string, opts ...Option) (*Tracker, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.store.Validate(); err != nil {
		return nil, fmt.Errorf("track: opening %q: %w", dir, err)
	}
	if dir != "" && o.store.Retain.Archive == dir {
		return nil, fmt.Errorf("track: opening %q: RetainPolicy.Archive is the spill directory itself", dir)
	}
	t := newTracker(dir, o)
	if dir == "" {
		return t, nil
	}
	if err := t.recoverDir(o); err != nil {
		return nil, fmt.Errorf("track: opening %q: %w", dir, err)
	}
	return t, nil
}

// Close ends the run: it seals the tail into a final segment, publishes a
// final catalog generation marked Closed, and fsyncs the spill directory so
// everything — segment renames included — is durable. After Close, Do
// panics and the mutating lifecycle methods (Seal, Compact,
// CompactSegments, RetainSegments) return errors; the read side (Stream,
// Snapshot, Catalog, lazy stamps) keeps working for post-mortem use.
// Closing twice is a no-op. Close first waits out the lifecycle workers:
// the SealEvery intervals the seal worker has not sealed yet are sealed,
// one segment each, and every queued compaction and retention pass runs,
// before the final seal, and both workers have stopped when Close returns.
// A seal failure is returned, with the tracker closed regardless and the
// unsealed tail still in memory.
func (t *Tracker) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	t.holdSealGate()
	err := t.catchUp()
	t.stopPasses()
	t.sealMu.Lock()
	t.world.Lock()
	t.swapLocked()
	if serr := t.sealLocked(t.mergedLenLocked()); err == nil {
		err = serr
	}
	// The Closed marker changes the published document even when the tail
	// was empty; give it its own generation.
	t.swapHist(func(old *segState) *segState {
		return &segState{segs: old.segs, retained: old.retained, gen: old.gen + 1}
	})
	t.world.Unlock()
	t.sealMu.Unlock()
	t.reclaim.reclaim()
	t.tailReclaim.reclaim()
	t.publishCatalog()
	if t.dir != "" {
		if serr := syncDir(t.fs, t.dir); serr != nil && err == nil {
			err = fmt.Errorf("track: closing: %w", serr)
		}
	}
	// The final seal made the whole run replayable without a barrier; wake
	// monitors so they evaluate the last records, and release commits that
	// raced Close into backpressure. Sealed-history reads keep working on a
	// closed tracker, so monitors drain normally.
	t.notifyMonitors()
	t.lc.broadcast()
	return err
}

// captureResumeLocked brings the resume manifest up to date with the
// tracker's current registration, cover and epoch state. Within an epoch
// all of these only grow — threads and objects register, edges are
// revealed, components are added — so a manifest whose epoch and counts
// still match is still exact and is kept: the steady-state seal publish
// pays O(threads) here, and only a seal after a reveal, a registration or
// an epoch change rebuilds it, in O(revealed edges). The caller holds the
// world write lock, so every revealer is quiescent and the shared graph
// and component set can be walked directly.
func (t *Tracker) captureResumeLocked() {
	cover := t.cover.Load()
	g := cover.Graph()
	t.reg.Lock()
	nThreads, nObjects := len(t.threads), len(t.objects)
	t.reg.Unlock()
	if r := t.resume; r != nil && r.Epoch == t.epoch && len(r.Threads) == nThreads && len(r.Objects) == nObjects &&
		len(r.Components) == cover.Size() && len(r.Edges) == g.Edges() {
		return
	}
	comps := cover.Components()
	t.reg.Lock()
	threads := make([]string, len(t.threads))
	for i, th := range t.threads {
		threads[i] = th.name
	}
	objects := make([]string, len(t.objects))
	for i, o := range t.objects {
		objects[i] = o.name
	}
	t.reg.Unlock()
	r := &tlog.CatalogResume{
		Epoch:       t.epoch,
		EpochStarts: append([]int(nil), t.epochStart...),
		Threads:     threads,
		Objects:     objects,
		Components:  make([]tlog.ResumeComponent, len(comps)),
		Edges:       make([][2]int, 0, g.Edges()),
	}
	for i, c := range comps {
		kind := tlog.ResumeObject
		if c.Side == bipartite.Threads {
			kind = tlog.ResumeThread
		}
		r.Components[i] = tlog.ResumeComponent{Kind: kind, ID: c.ID}
	}
	for _, e := range g.EdgeList() {
		r.Edges = append(r.Edges, [2]int{e.Thread, e.Object})
	}
	t.resume = r
}

// writeFileSync atomically creates dir/name with the given contents: the
// bytes land in a temp file, are fsynced, and are renamed into place. A
// crash mid-write leaves at most a stray temp file, never a torn name.
// Transient failures retry the whole cycle — the data is rewritten from
// memory each time, which is what makes retrying a failed fsync sound
// (faults.go).
func writeFileSync(fsys vfs.FS, dir, name string, data []byte) error {
	return retryTransient(func() error { return writeFileSyncOnce(fsys, dir, name, data) })
}

// writeFileSyncOnce is one temp-write-fsync-rename cycle.
func writeFileSyncOnce(fsys vfs.FS, dir, name string, data []byte) error {
	tmp, err := fsys.CreateTemp(dir, ".seg-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
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
	if err := fsys.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	return nil
}

// syncDir fsyncs a directory, making completed renames within it durable.
// Transient failures retry the whole open-fsync cycle.
func syncDir(fsys vfs.FS, dir string) error {
	return retryTransient(func() error { return fsys.SyncDir(dir) })
}
