package track

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mixedclock/internal/tlog"
	"mixedclock/internal/vfs"
)

// buildEpochs drives a spilling tracker through two epochs with several
// segments each and returns it (epoch 1 current, epoch 0 graduated).
func buildEpochs(t *testing.T, dir string, opts ...Option) *Tracker {
	t.Helper()
	tr, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	th := tr.NewThread("t0")
	ob := tr.NewObject("o0")
	for s := 0; s < 3; s++ {
		for i := 0; i < 10; i++ {
			th.Write(ob, nil)
		}
		if err := tr.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := tr.Compact(); err != nil { // graduates epoch 0
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		th.Write(ob, nil)
	}
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRetainGraduatedOnly: a byte budget of 1 retires every graduated
// (closed-epoch) segment and nothing from the current epoch, deletes exactly
// those files, publishes the floor, and keeps the tracker replayable above
// it.
func TestRetainGraduatedOnly(t *testing.T) {
	dir := t.TempDir()
	tr := buildEpochs(t, dir)
	defer tr.Close()
	segsBefore := tr.Segments()
	epoch := tr.Epoch()
	var graduated int
	var floor int
	for _, sg := range segsBefore {
		if sg.Epoch < epoch {
			graduated++
			floor = sg.FirstIndex + sg.Events
		}
	}
	if graduated == 0 {
		t.Fatal("workload produced no graduated segments")
	}

	n, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != graduated {
		t.Fatalf("retired %d segments, want all %d graduated ones", n, graduated)
	}
	if got := tr.RetainedEvents(); got != floor {
		t.Errorf("RetainedEvents = %d, want %d", got, floor)
	}
	for _, sg := range segsBefore {
		_, err := os.Stat(sg.Path)
		if sg.Epoch < epoch && !os.IsNotExist(err) {
			t.Errorf("graduated segment %s not deleted", sg.Path)
		}
		if sg.Epoch == epoch && err != nil {
			t.Errorf("current-epoch segment %s gone: %v", sg.Path, err)
		}
	}
	// A second pass has nothing left to do: the current epoch never retires.
	if n, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1}); err != nil || n != 0 {
		t.Errorf("second pass retired %d (err %v), want 0", n, err)
	}
	// The published catalog carries the floor and stays gapless above it.
	f, err := os.Open(filepath.Join(dir, tlog.CatalogFileName))
	if err != nil {
		t.Fatal(err)
	}
	c, err := tlog.DecodeCatalog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if c.RetainedEvents != floor {
		t.Errorf("catalog floor %d, want %d", c.RetainedEvents, floor)
	}
	// Replay starts at the floor; stamps below it are gone.
	tr2 := tr // same tracker: Snapshot must deliver only [floor, end)
	trace, _ := tr2.Snapshot()
	if want := tr.Events() - floor; trace.Len() != want {
		t.Errorf("post-retention trace holds %d events, want %d", trace.Len(), want)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("healthy retention left Err = %v", err)
	}
}

// TestRetainStampRetired: a lazy stamp below the floor materializes as nil
// and notes the retirement in Err instead of panicking or inventing zeros.
func TestRetainStampRetired(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	th, ob := tr.NewThread("t0"), tr.NewObject("o0")
	early := th.Write(ob, nil)
	for i := 0; i < 9; i++ {
		th.Write(ob, nil)
	}
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if v := early.Vector(); v != nil {
		t.Errorf("retired stamp materialized as %v, want nil", v)
	}
	if tr.Err() == nil {
		t.Error("retired-stamp access not noted in Err")
	}
}

// TestRetainMaxAge: only graduated segments older than MaxAge retire.
func TestRetainMaxAge(t *testing.T) {
	dir := t.TempDir()
	tr := buildEpochs(t, dir)
	defer tr.Close()
	// Nothing is old enough yet.
	if n, err := tr.RetainSegments(RetainPolicy{MaxAge: time.Hour}); err != nil || n != 0 {
		t.Fatalf("young segments retired: n=%d err=%v", n, err)
	}
	// Backdate the first graduated segment (internal surgery — the seal
	// clock is wall time, which tests cannot wait out).
	tr.world.Lock()
	tr.hist.Load().segs[0].sealedAt = time.Now().Add(-2 * time.Hour)
	tr.world.Unlock()
	n, err := tr.RetainSegments(RetainPolicy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("retired %d segments, want exactly the backdated one", n)
	}
}

// TestRetainArchive: retired files move to the archive directory instead of
// being deleted, under their original names.
func TestRetainArchive(t *testing.T) {
	dir := t.TempDir()
	archive := filepath.Join(t.TempDir(), "cold")
	tr := buildEpochs(t, dir)
	defer tr.Close()
	var names []string
	epoch := tr.Epoch()
	for _, sg := range tr.Segments() {
		if sg.Epoch < epoch {
			names = append(names, filepath.Base(sg.Path))
		}
	}
	n, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1, Archive: archive})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(names) {
		t.Fatalf("retired %d, want %d", n, len(names))
	}
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(archive, name)); err != nil {
			t.Errorf("archived segment %s: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("archived segment %s still in spill dir", name)
		}
	}
}

// TestRetainArchiveCopy: when moving a retired file into the archive fails
// (as a rename across filesystems does), retention copies it through the
// store's durable write, so the archived bytes match the catalog's SHA-256
// and the source is removed only after them; when the copy fails too, the
// source stays in the spill directory and the failure surfaces through Err.
func TestRetainArchiveCopy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rules []vfs.Rule
		moved bool
	}{
		// The retired file meets its move, then — after the move fails —
		// its copy's rename: fail only the move.
		{"copied", []vfs.Rule{
			{Ops: vfs.Ops(vfs.OpRename), PathContains: "cold", Count: 1},
		}, true},
		{"copy fails", []vfs.Rule{
			{Ops: vfs.Ops(vfs.OpRename, vfs.OpWrite), PathContains: "cold", Err: syscall.ENOSPC},
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			archive := filepath.Join(t.TempDir(), "cold")
			fi := vfs.NewFaulty(vfs.OS)
			tr := buildEpochs(t, dir, WithStore(Store{FS: fi}))
			defer tr.Close()
			// A byte budget that retires exactly the oldest segment.
			segs := tr.Catalog().Segments
			var total int64
			for _, sg := range segs {
				total += sg.Bytes
			}
			retired := segs[:1]
			fi.Script(tc.rules...)
			if n, err := tr.RetainSegments(RetainPolicy{MaxBytes: total - segs[0].Bytes, Archive: archive}); err != nil || n != 1 {
				t.Fatalf("retired %d (err %v), want 1", n, err)
			}
			fi.Heal()
			for _, sg := range retired {
				_, srcErr := os.Stat(filepath.Join(dir, sg.Path))
				if !tc.moved {
					if srcErr != nil {
						t.Errorf("%s left the spill directory after a failed archive copy: %v", sg.Path, srcErr)
					}
					if _, err := os.Stat(filepath.Join(archive, sg.Path)); !os.IsNotExist(err) {
						t.Errorf("%s: failed copy left an archived file (stat: %v)", sg.Path, err)
					}
					continue
				}
				if !os.IsNotExist(srcErr) {
					t.Errorf("%s still in the spill directory after archiving", sg.Path)
				}
				if _, err := tlog.VerifySegment(vfs.OS, archive, sg, nil); err != nil {
					t.Errorf("archived copy: %v", err)
				}
			}
			if !tc.moved {
				if tr.Err() == nil {
					t.Error("failed archive copy not surfaced through Err")
				}
				return
			}
			// Every source removal follows its own copy's fsync.
			synced, removed := 0, 0
			for _, op := range fi.History() {
				switch {
				case op.Op == vfs.OpFileSync && strings.Contains(op.Path, "cold"):
					synced++
				case op.Op == vfs.OpRemove && strings.HasSuffix(op.Path, ".mvcseg"):
					if removed++; synced < removed {
						t.Errorf("%s removed before its archive copy was synced", op.Path)
					}
				}
			}
			if removed != len(retired) {
				t.Errorf("%d sources removed, want %d", removed, len(retired))
			}
		})
	}
}

// TestRetainThenReopen: the floor survives a crash-reopen and the reopened
// tracker replays exactly the surviving suffix.
func TestRetainThenReopen(t *testing.T) {
	dir := t.TempDir()
	tr := buildEpochs(t, dir)
	if _, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	floor := tr.RetainedEvents()
	events := tr.Events()
	var want bytes.Buffer
	if err := tr.SnapshotTo(&want); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close.

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Err(); err != nil {
		t.Fatalf("reopen after retention: %v", err)
	}
	ri := re.Recovery()
	if ri.RetainedFloor != floor {
		t.Errorf("recovered floor %d, want %d", ri.RetainedFloor, floor)
	}
	if ri.Events != events {
		t.Errorf("recovered %d events, want %d", ri.Events, events)
	}
	var got bytes.Buffer
	if err := re.SnapshotTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("post-retention replay differs after reopen")
	}
}

// TestAutoRetention: WithStore arms retention on the seal path.
func TestAutoRetention(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(dir, WithStore(Store{
		Retain: RetainPolicy{MaxBytes: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	th, ob := tr.NewThread("t0"), tr.NewObject("o0")
	for i := 0; i < 10; i++ {
		th.Write(ob, nil)
	}
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		th.Write(ob, nil)
	}
	// This seal graduates nothing new, but the epoch-0 segment is now
	// over-budget and graduated: the automatic pass must retire it.
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := tr.RetainedEvents(); got != 10 {
		t.Errorf("auto retention floor %d, want 10", got)
	}
}
