// Package crashtest is the exhaustive crash-point sweep for the durable
// store: it runs a deterministic workload (spilling, epoch compaction,
// tiered segment merging, retention, shipping) over vfs.Faulty to record
// the workload's durable filesystem operations, then re-runs it once per
// operation with the filesystem frozen at exactly that operation — every
// possible power-cut point — and recovers each frozen directory with the
// real filesystem, demanding the full crash-consistency contract every time:
//
//   - track.Open never panics and never errors on damage;
//   - the recovered sealed extent, epoch, and retention floor are exactly
//     what the frozen directory's catalog promised;
//   - quarantines are sound — only orphans and temp files, never a
//     catalog-listed segment (listed files are synced and renamed before
//     the listing lands, so a crash cannot tear them);
//   - the recovered records are prefix-consistent with a fault-free
//     reference run: identical (event, epoch, stamp) triples at identical
//     global indices;
//   - committing resumes at the recovered index, and a Close/reopen round
//     trip is clean with no new quarantines.
//
// Crash points are operations, named by vfs.OpID — class, path and
// ordinal — not by their global index. The tracker seals on one lifecycle
// worker and compacts and retains on another, and the two interleave their
// operations differently from run to run, so the operation at a given index
// changes between runs; which operations run does not. Compact and Close
// first seal what the seal worker has not, and every pass plans over the
// history as of the seal that queued it, so the workload (single
// goroutine, count-based policies only) performs the same set of durable
// operations every run. The sweep records that set twice and demands it
// be identical, then crashes at every operation in it exactly once; each
// crash run must reach its operation. What lands before the crash depends
// on the interleaving the run took, which a failing crash point logs as
// the run's operation history. CRASHTEST_FULL=1 widens the matrix for
// nightly CI.
package crashtest

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/track"
	"mixedclock/internal/vclock"
	"mixedclock/internal/vfs"
)

// record is one reference triple: an event, the epoch it was recorded in,
// and its stamp.
type record struct {
	e     event.Event
	epoch int
	v     vclock.Vector
}

// recordSink collects cloned records from a Stream.
type recordSink []record

func (s *recordSink) ConsumeStamp(e event.Event, epoch int, v vclock.Vector) error {
	*s = append(*s, record{e, epoch, v.Clone()})
	return nil
}

// sweepConfig is one cell of the sweep matrix: a storage policy set plus a
// deterministic commit/compact schedule. Only count-based policies appear —
// wall-clock triggers (SealInterval, MaxAge) would make the durable-op
// sequence nondeterministic and the sweep unsound.
type sweepConfig struct {
	name      string
	spill     track.SpillPolicy
	compact   track.CompactPolicy
	retain    track.RetainPolicy
	rounds    int         // commit rounds; each round commits len(threads) events
	compactAt map[int]int // rounds after which an explicit Compact() closes the epoch
}

// store assembles the config's Store around the given filesystem.
func (c sweepConfig) store(fsys vfs.FS) track.Store {
	return track.Store{Spill: c.spill, Compact: c.compact, Retain: c.retain, FS: fsys}
}

// drive runs the deterministic commit schedule against an open tracker:
// three threads round-robin reads and writes over two objects, with epoch
// compactions at the scheduled rounds. Lifecycle errors are swallowed — on
// a crash-frozen filesystem every seal and compaction fails, which is
// exactly the scenario under test; commits themselves never touch the
// filesystem and always succeed.
func drive(tr *track.Tracker, c sweepConfig) {
	threads := []*track.Thread{tr.NewThread("t0"), tr.NewThread("t1"), tr.NewThread("t2")}
	objects := []*track.Object{tr.NewObject("o0"), tr.NewObject("o1")}
	for r := 0; r < c.rounds; r++ {
		for i, th := range threads {
			o := objects[(r+i)%len(objects)]
			if (r+i)%3 == 0 {
				th.Read(o, nil)
			} else {
				th.Write(o, nil)
			}
		}
		if c.compactAt[r] != 0 {
			_, _, _ = tr.Compact()
		}
	}
}

// openAndRun opens dir with the given store and drives the workload. The
// tracker comes back not yet Closed; an Open error (possible only when the
// filesystem is already frozen) comes back as nil tracker.
func openAndRun(dir string, st track.Store, c sweepConfig) (*track.Tracker, error) {
	tr, err := track.Open(dir, track.WithStore(st))
	if err != nil {
		return nil, err
	}
	drive(tr, c)
	return tr, nil
}

// referenceRecords runs the workload fault-free with retention disabled —
// retention deletes files but never changes a single stamp, so the run is
// record-identical to the real config — and returns every (event, epoch,
// stamp) triple the workload commits. This is the ground truth every
// crash-recovered directory is compared against.
func referenceRecords(t *testing.T, c sweepConfig) []record {
	t.Helper()
	st := c.store(nil)
	st.Retain = track.RetainPolicy{}
	tr, err := openAndRun(t.TempDir(), st, c)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var ref recordSink
	if err := tr.Stream(&ref); err != nil {
		t.Fatal(err)
	}
	if len(ref) != tr.Events() {
		t.Fatalf("reference run streamed %d records for %d events", len(ref), tr.Events())
	}
	return ref
}

// durableOps runs the workload fault-free in dir, which must not exist,
// through an injector and returns the durable operations it performs — the
// crash sweep's crash points — sorted by identity.
func durableOps(t *testing.T, c sweepConfig, dir string) []vfs.OpID {
	t.Helper()
	fi := vfs.NewFaulty(vfs.OS)
	tr, err := openAndRun(dir, c.store(fi), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	ops := fi.History()
	slices.SortFunc(ops, func(a, b vfs.OpID) int {
		return cmp.Or(cmp.Compare(a.Path, b.Path), cmp.Compare(a.Op, b.Op), cmp.Compare(a.Nth, b.Nth))
	})
	return ops
}

// frozenExpectation reads the crash-frozen directory's catalog the way
// recovery will — catalog.json first, the .prev fallback second — and
// returns the recovery contract it promises: the sealed extent, the resume
// epoch, the retention floor, and the set of listed segment files (which
// must never be quarantined). A directory with no catalog promises a fresh
// start.
func frozenExpectation(t *testing.T, dir string) (sealed, epoch, floor int, listed map[string]bool) {
	t.Helper()
	listed = map[string]bool{}
	cat := readFrozenCatalog(t, dir)
	if cat == nil {
		return 0, 0, 0, listed
	}
	for _, sg := range cat.Segments {
		if sg.Path != "" {
			listed[sg.Path] = true
		}
	}
	if cat.Resume != nil {
		epoch = cat.Resume.Epoch
	}
	return cat.SealedEvents, epoch, cat.RetainedEvents, listed
}

func readFrozenCatalog(t *testing.T, dir string) *tlog.Catalog {
	t.Helper()
	for _, name := range []string{tlog.CatalogFileName, tlog.CatalogPrevFileName} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		cat, err := tlog.DecodeCatalog(f)
		f.Close()
		if err != nil {
			// Crash freezes never tear a file: a catalog that exists decodes.
			t.Fatalf("frozen %s is unreadable: %v", name, err)
		}
		return cat
	}
	return nil
}

// verifyCrashPoint opens one crash-frozen directory with the real
// filesystem and checks the whole recovery contract against the reference.
// k names the crash point in failures.
func verifyCrashPoint(t *testing.T, dir string, k fmt.Stringer, ref []record) {
	t.Helper()
	wantSealed, wantEpoch, wantFloor, listed := frozenExpectation(t, dir)

	re, err := track.Open(dir)
	if err != nil {
		t.Fatalf("k=%v: Open after crash: %v", k, err)
	}
	ri := re.Recovery()
	if ri == nil {
		t.Fatalf("k=%v: no RecoveryInfo", k)
	}
	if ri.Events != wantSealed {
		t.Fatalf("k=%v: recovered %d sealed events, catalog promised %d", k, ri.Events, wantSealed)
	}
	if ri.Epoch != wantEpoch {
		t.Fatalf("k=%v: resumed epoch %d, catalog promised %d (quarantined %v)", k, ri.Epoch, wantEpoch, ri.Quarantined)
	}
	if ri.RetainedFloor != wantFloor {
		t.Fatalf("k=%v: retention floor %d, catalog promised %d", k, ri.RetainedFloor, wantFloor)
	}
	// Quarantine soundness: only orphans and temps may be set aside. A
	// listed segment is synced and renamed before its listing lands, so a
	// crash can never damage one.
	for _, q := range ri.Quarantined {
		orig := strings.TrimSuffix(filepath.Base(q), tlog.QuarantineSuffix)
		if listed[orig] {
			t.Fatalf("k=%v: catalog-listed segment %s was quarantined", k, orig)
		}
	}

	// Prefix consistency: the recovered records above the floor are exactly
	// the reference records at the same global indices — same event, same
	// epoch, equal stamp.
	var got recordSink
	if err := re.Stream(&got); err != nil {
		t.Fatalf("k=%v: Stream after recovery: %v", k, err)
	}
	if len(got) != wantSealed-wantFloor {
		t.Fatalf("k=%v: recovered %d records over [%d,%d)", k, len(got), wantFloor, wantSealed)
	}
	for i, r := range got {
		want := ref[wantFloor+i]
		if r.e != want.e || r.epoch != want.epoch || !r.v.Equal(want.v) {
			t.Fatalf("k=%v: record %d diverges from reference:\n got (%v, epoch %d, %v)\nwant (%v, epoch %d, %v)",
				k, wantFloor+i, r.e, r.epoch, r.v, want.e, want.epoch, want.v)
		}
	}

	// Committing resumes exactly at the recovered extent.
	th := re.NewThread("resume-t")
	ob := re.NewObject("resume-o")
	if s := th.Write(ob, nil); s.Event.Index != wantSealed {
		t.Fatalf("k=%v: resumed commit at index %d, want %d", k, s.Event.Index, wantSealed)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("k=%v: Close after recovery: %v", k, err)
	}

	// The repaired directory reopens cleanly: Close marker present, no new
	// quarantines, every event accounted for.
	re2, err := track.Open(dir)
	if err != nil {
		t.Fatalf("k=%v: second Open: %v", k, err)
	}
	ri2 := re2.Recovery()
	if !ri2.CleanClose {
		t.Fatalf("k=%v: Close marker lost across reopen", k)
	}
	if len(ri2.Quarantined) != 0 {
		t.Fatalf("k=%v: repaired directory quarantined again: %v", k, ri2.Quarantined)
	}
	if got, want := re2.Events(), wantSealed+1; got != want {
		t.Fatalf("k=%v: reopened at %d events, want %d", k, got, want)
	}
	if err := re2.Close(); err != nil {
		t.Fatalf("k=%v: second Close: %v", k, err)
	}
}

// sweep is one full crash-point sweep for one config. Every run uses the
// same directory path, so the operations' paths — and so their identities
// — agree across runs. The operation set is recorded twice: seals,
// compaction and retention run on the tracker's lifecycle workers, and the
// sweep is exhaustive only if which operations run is a function of the
// commit sequence however those workers interleave.
func sweep(t *testing.T, c sweepConfig) {
	ref := referenceRecords(t, c)
	dir := filepath.Join(t.TempDir(), "run")
	ops := durableOps(t, c, dir)
	if len(ops) == 0 {
		t.Fatalf("workload %q performs no durable operations; nothing to sweep", c.name)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if again := durableOps(t, c, dir); !slices.Equal(again, ops) {
		t.Fatalf("workload %q performed different durable operations in two runs:\n%v\n%v", c.name, ops, again)
	}
	for _, k := range ops {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		fi := vfs.NewFaulty(vfs.OS)
		fi.CrashAtOp(k)
		tr, err := openAndRun(dir, c.store(fi), c)
		if tr != nil {
			_ = tr.Close() // fails on the frozen filesystem; that IS the crash
		} else if err == nil {
			t.Fatalf("k=%v: Open returned neither tracker nor error", k)
		}
		hist := fi.History()
		if !fi.Crashed() || hist[len(hist)-1] != k {
			t.Fatalf("k=%v: crash point never reached; the run performed %v", k, hist)
		}
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("k=%v: the crashed run's durable operations, in order: %v", k, hist)
				}
			}()
			verifyCrashPoint(t, dir, k, ref)
		}()
	}
}

// sweepConfigs is the matrix: the default run covers one config exercising
// every subsystem at once (spilling, epoch compaction, tiered merging,
// retention); CRASHTEST_FULL=1 — the nightly job — adds per-subsystem
// configs so each lifecycle path is also swept in isolation.
func sweepConfigs() []sweepConfig {
	full := sweepConfig{
		name:      "full",
		spill:     track.SpillPolicy{SealEvery: 4},
		compact:   track.CompactPolicy{MaxSegments: 2},
		retain:    track.RetainPolicy{MaxBytes: 1},
		rounds:    8,
		compactAt: map[int]int{2: 1, 5: 1},
	}
	if os.Getenv("CRASHTEST_FULL") == "" {
		return []sweepConfig{full}
	}
	return []sweepConfig{
		full,
		{
			name:   "spill-only",
			spill:  track.SpillPolicy{SealEvery: 3},
			rounds: 8,
		},
		{
			name:      "compaction",
			spill:     track.SpillPolicy{SealEvery: 3},
			compact:   track.CompactPolicy{MaxSegments: 1},
			rounds:    10,
			compactAt: map[int]int{3: 1, 7: 1},
		},
		{
			name:      "retention",
			spill:     track.SpillPolicy{SealEvery: 2},
			retain:    track.RetainPolicy{MaxBytes: 1},
			rounds:    10,
			compactAt: map[int]int{2: 1, 4: 1, 7: 1},
		},
	}
}

// TestCrashSweep is the exhaustive sweep: every durable operation of every
// matrix config is a crash point, and every crash point must recover.
func TestCrashSweep(t *testing.T) {
	for _, c := range sweepConfigs() {
		t.Run(c.name, func(t *testing.T) { sweep(t, c) })
	}
}
