package track

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/vclock"
)

// runSealedWorkload drives nThreads goroutine-free threads over nObjects
// objects for rounds round-robin rounds, sealing as the policy dictates, and
// returns the tracker (NOT closed — the unsealed suffix is the caller's to
// lose).
func runSealedWorkload(t *testing.T, dir string, nThreads, nObjects, rounds int) *Tracker {
	t.Helper()
	tr := mustOpen(t, dir)
	threads := make([]*Thread, nThreads)
	for i := range threads {
		threads[i] = tr.NewThread(fmt.Sprintf("t%d", i))
	}
	objects := make([]*Object, nObjects)
	for i := range objects {
		objects[i] = tr.NewObject(fmt.Sprintf("o%d", i))
	}
	for r := 0; r < rounds; r++ {
		for i, th := range threads {
			th.Write(objects[(r+i)%nObjects], nil)
		}
	}
	return tr
}

func snapshotBytes(t *testing.T, tr *Tracker) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.SnapshotTo(&buf); err != nil {
		t.Fatalf("SnapshotTo: %v", err)
	}
	return buf.Bytes()
}

// TestRecoverRoundTrip is the acceptance round trip: run with spilling, seal,
// crash without Close, reopen, and demand byte-identical replay of the
// sealed prefix plus correct resumption of epoch, trace index and clocks.
func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := runSealedWorkload(t, dir, 3, 2, 10)
	if _, _, err := tr.Compact(); err != nil { // epoch 0 -> 1
		t.Fatal(err)
	}
	threads, objects := tr.Threads(), tr.Objects()
	for r := 0; r < 5; r++ {
		for i, th := range threads {
			th.Write(objects[i%len(objects)], nil)
		}
	}
	wantEpoch := tr.Epoch()
	// The last pre-crash sealed stamp of t0 — recovery must rebuild t0's
	// clock to dominate it.
	lastSealed := threads[0].Write(objects[0], nil).Vector()
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	sealedEvents := tr.Events()
	want := snapshotBytes(t, tr)
	// Commits after the last seal are the unsealed suffix a crash loses.
	for i, th := range threads {
		th.Write(objects[(i+1)%len(objects)], nil)
	}
	// Simulated crash: the tracker is abandoned without Close.

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.Recovery()
	if ri == nil {
		t.Fatal("Recovery() = nil after Open of a used directory")
	}
	if ri.CleanClose {
		t.Error("CleanClose = true for a crashed run")
	}
	if ri.Events != sealedEvents {
		t.Errorf("recovered %d events, want %d", ri.Events, sealedEvents)
	}
	if re.Epoch() != wantEpoch {
		t.Errorf("recovered epoch %d, want %d", re.Epoch(), wantEpoch)
	}
	if len(ri.Quarantined) != 0 {
		t.Errorf("clean catalog quarantined %v", ri.Quarantined)
	}
	if err := re.Err(); err != nil {
		t.Errorf("Err after clean recovery: %v", err)
	}
	if got := snapshotBytes(t, re); !bytes.Equal(got, want) {
		t.Fatalf("recovered SnapshotTo differs: %d bytes vs %d", len(got), len(want))
	}
	// Committing resumes at the next index, in the same epoch, with clocks
	// that dominate the crashed run's sealed stamps.
	rth, rob := re.Threads(), re.Objects()
	if len(rth) != 3 || len(rob) != 2 {
		t.Fatalf("recovered %d threads / %d objects, want 3/2", len(rth), len(rob))
	}
	if rth[0].Name() != "t0" || rob[0].Name() != "o0" {
		t.Errorf("recovered names %q/%q, want t0/o0", rth[0].Name(), rob[0].Name())
	}
	s := rth[0].Write(rob[0], nil)
	if s.Event.Index != sealedEvents {
		t.Errorf("first resumed commit at index %d, want %d", s.Event.Index, sealedEvents)
	}
	if s.Epoch != wantEpoch {
		t.Errorf("resumed commit in epoch %d, want %d", s.Epoch, wantEpoch)
	}
	if got := lastSealed.Compare(s.Vector()); got != vclock.Before {
		t.Errorf("sealed stamp vs resumed stamp = %v, want Before (clock continuity)", got)
	}
	if err := re.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverAfterClose reopens a cleanly closed run.
func TestRecoverAfterClose(t *testing.T) {
	dir := t.TempDir()
	tr := runSealedWorkload(t, dir, 2, 2, 6)
	n := tr.Events()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Close sealed the tail; the catalog must say so.
	f, err := os.Open(filepath.Join(dir, tlog.CatalogFileName))
	if err != nil {
		t.Fatal(err)
	}
	c, err := tlog.DecodeCatalog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Closed {
		t.Error("published catalog not marked Closed after Close")
	}
	if c.SealedEvents != n {
		t.Errorf("catalog seals %d events, want %d", c.SealedEvents, n)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ri := re.Recovery(); !ri.CleanClose {
		t.Error("CleanClose = false after a clean Close")
	}
	if re.Events() != n {
		t.Errorf("recovered %d events, want %d", re.Events(), n)
	}
	if s := re.Threads()[0].Write(re.Objects()[0], nil); s.Event.Index != n {
		t.Errorf("resumed at index %d, want %d", s.Event.Index, n)
	}
}

// TestCloseSemantics: Do panics, mutating lifecycle calls error, reads keep
// working, double Close is a no-op.
func TestCloseSemantics(t *testing.T) {
	dir := t.TempDir()
	tr := runSealedWorkload(t, dir, 1, 1, 3)
	th, ob := tr.Threads()[0], tr.Objects()[0]
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := tr.Seal(); err == nil {
		t.Error("Seal on a closed Tracker succeeded")
	}
	if _, _, err := tr.Compact(); err == nil {
		t.Error("Compact on a closed Tracker succeeded")
	}
	if _, err := tr.CompactSegments(CompactPolicy{}); err == nil {
		t.Error("CompactSegments on a closed Tracker succeeded")
	}
	if _, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1}); err == nil {
		t.Error("RetainSegments on a closed Tracker succeeded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Do on a closed Tracker did not panic")
			}
		}()
		th.Write(ob, nil)
	}()
	// Post-mortem reads still work.
	if got := snapshotBytes(t, tr); len(got) == 0 {
		t.Error("SnapshotTo empty after Close")
	}
	if tr.Events() != 3 {
		t.Errorf("Events = %d after Close, want 3", tr.Events())
	}
}

// TestRecoverOrphanSegment: a seal that crashed after its rename but before
// its catalog publication leaves an unlisted .mvcseg; reopen quarantines it
// without giving up the listed history (same epoch, mode A).
func TestRecoverOrphanSegment(t *testing.T) {
	dir := t.TempDir()
	tr := runSealedWorkload(t, dir, 2, 2, 8)
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	n, epoch := tr.Events(), tr.Epoch()
	want := snapshotBytes(t, tr)
	// Forge the orphan: a valid-looking segment file the catalog never saw.
	orphan := filepath.Join(dir, tlog.SegmentFileName(tlog.SegmentMeta{FirstIndex: n, Count: 5}))
	if err := os.WriteFile(orphan, []byte("MVCSEG01 torn mid-write"), 0o666); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.Recovery()
	if len(ri.Quarantined) != 1 || !strings.HasSuffix(ri.Quarantined[0], tlog.QuarantineSuffix) {
		t.Fatalf("Quarantined = %v, want the one orphan", ri.Quarantined)
	}
	if re.Epoch() != epoch || ri.Events != n {
		t.Errorf("orphan forced epoch %d events %d, want mode A (%d, %d)", re.Epoch(), ri.Events, epoch, n)
	}
	if re.Err() == nil {
		t.Error("quarantine not surfaced through Err/health")
	}
	if got := snapshotBytes(t, re); !bytes.Equal(got, want) {
		t.Error("orphan quarantine changed the replay")
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphan still matches *.mvcseg after quarantine")
	}
}

// TestRecoverTruncatedTail and TestRecoverBitFlippedTail: damage to a listed
// segment quarantines it (and the rest), reopens with health, never panics,
// and starts a fresh epoch.
func TestRecoverTruncatedTail(t *testing.T) {
	testRecoverDamagedTail(t, func(data []byte) []byte { return data[:len(data)/2] })
}
func TestRecoverBitFlippedTail(t *testing.T) {
	testRecoverDamagedTail(t, func(data []byte) []byte {
		data[len(data)-3] ^= 0x40
		return data
	})
}

func testRecoverDamagedTail(t *testing.T, damage func([]byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	tr := runSealedWorkload(t, dir, 2, 2, 6)
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	firstEnd := tr.Events()
	epoch := tr.Epoch()
	want := snapshotBytes(t, tr)
	threads, objects := tr.Threads(), tr.Objects()
	for i, th := range threads {
		th.Write(objects[i%len(objects)], nil)
	}
	if err := tr.Seal(); err != nil { // second segment — the tail to damage
		t.Fatal(err)
	}
	segs := tr.Segments()
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, have %d", len(segs))
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last.Path, damage(data), 0o666); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.Recovery()
	if len(ri.Quarantined) == 0 {
		t.Fatal("damaged tail not quarantined")
	}
	if ri.Events != firstEnd {
		t.Errorf("recovered %d events, want the intact prefix %d", ri.Events, firstEnd)
	}
	if re.Epoch() != epoch+1 {
		t.Errorf("damaged tail resumed epoch %d, want fresh epoch %d", re.Epoch(), epoch+1)
	}
	if re.Err() == nil {
		t.Error("damage not surfaced through Err/health")
	}
	if got := snapshotBytes(t, re); !bytes.Equal(got, want) {
		t.Error("intact prefix replay changed")
	}
	// Still a working tracker.
	if s := re.Threads()[0].Write(re.Objects()[0], nil); s.Event.Index != firstEnd {
		t.Errorf("resumed at index %d, want %d", s.Event.Index, firstEnd)
	}
}

// TestRecoverTornCatalogFallsBackToPrev: a torn catalog.json is quarantined
// and the .prev copy restores the previous generation's listing.
func TestRecoverTornCatalogPrevFallback(t *testing.T) {
	dir := t.TempDir()
	tr := runSealedWorkload(t, dir, 2, 2, 6)
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	// A second publication so catalog.json.prev exists.
	threads, objects := tr.Threads(), tr.Objects()
	threads[0].Write(objects[0], nil)
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, tlog.CatalogPrevFileName)); err != nil {
		t.Fatalf("no prev catalog after two publications: %v", err)
	}
	prevRaw, err := os.ReadFile(filepath.Join(dir, tlog.CatalogPrevFileName))
	if err != nil {
		t.Fatal(err)
	}
	var prevCat *tlog.Catalog
	if prevCat, err = tlog.DecodeCatalog(bytes.NewReader(prevRaw)); err != nil {
		t.Fatal(err)
	}
	// Tear the current catalog mid-write.
	cur := filepath.Join(dir, tlog.CatalogFileName)
	raw, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, raw[:len(raw)/3], 0o666); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.Recovery()
	if !ri.UsedPrevCatalog {
		t.Error("UsedPrevCatalog = false after torn catalog")
	}
	if ri.Events != prevCat.SealedEvents {
		t.Errorf("recovered %d events, want prev generation's %d", ri.Events, prevCat.SealedEvents)
	}
	// The last seal's segment is unlisted in the prev generation: orphaned.
	if len(ri.Quarantined) < 2 { // torn catalog + orphan segment
		t.Errorf("Quarantined = %v, want torn catalog and orphan segment", ri.Quarantined)
	}
}

// TestRecoverTornCatalogNoPrev: with both catalog copies unusable nothing is
// trusted — every segment is set aside and the run restarts empty, never
// panicking.
func TestRecoverTornCatalogNoPrev(t *testing.T) {
	dir := t.TempDir()
	tr := runSealedWorkload(t, dir, 2, 2, 6)
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tlog.CatalogFileName), []byte("{torn"), 0o666); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, tlog.CatalogPrevFileName))

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.Recovery()
	if ri.Events != 0 || ri.Segments != 0 {
		t.Errorf("recovered %d events / %d segments from an unanchored directory", ri.Events, ri.Segments)
	}
	if len(ri.Quarantined) < 2 { // the torn catalog + at least one segment
		t.Errorf("Quarantined = %v, want catalog and segments", ri.Quarantined)
	}
	if re.Err() == nil {
		t.Error("total loss not surfaced through Err/health")
	}
	// Fresh but functional.
	th, ob := re.NewThread("t"), re.NewObject("o")
	if s := th.Write(ob, nil); s.Event.Index != 0 {
		t.Errorf("fresh run started at index %d", s.Event.Index)
	}
}

// TestRecoverMovedDir: catalog paths are relative, so a spill directory can
// be copied elsewhere and opened there with byte-identical replay.
func TestRecoverMovedDir(t *testing.T) {
	dir := t.TempDir()
	tr := runSealedWorkload(t, dir, 3, 2, 8)
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, tr)
	// Segments() must report paths under the original dir (a joined path,
	// not a bare name).
	for _, sg := range tr.Segments() {
		if !filepath.IsAbs(sg.Path) && !strings.HasPrefix(sg.Path, dir) {
			t.Errorf("Segments path %q not under %q", sg.Path, dir)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	moved := filepath.Join(t.TempDir(), "moved")
	if err := os.MkdirAll(moved, 0o777); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(moved, e.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(moved)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Err(); err != nil {
		t.Fatalf("Err after opening the moved copy: %v", err)
	}
	if got := snapshotBytes(t, re); !bytes.Equal(got, want) {
		t.Fatal("moved-dir SnapshotTo differs from the original")
	}
}

// TestOpenValidatesOptions: Open rejects contradictory storage policies.
func TestOpenValidatesOptions(t *testing.T) {
	if _, err := Open(t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: -1}})); err == nil {
		t.Error("Open accepted a negative SealEvery")
	}
	if _, err := Open("", WithStore(Store{Spill: SpillPolicy{SealEvery: -1}})); err == nil {
		t.Error("in-memory Open accepted a negative SealEvery")
	}
	if _, err := Open(t.TempDir(), WithStore(Store{Retain: RetainPolicy{MaxBytes: -1}})); err == nil {
		t.Error("Open accepted a negative RetainPolicy.MaxBytes")
	}
	dir := t.TempDir()
	if _, err := Open(dir, WithStore(Store{Retain: RetainPolicy{MaxBytes: 1, Archive: dir}})); err == nil {
		t.Error("Open accepted Archive == spill dir")
	}
	// Empty dir means in-memory, for symmetry; no recovery, no files.
	tr, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Recovery() != nil {
		t.Error("in-memory Open reported a recovery")
	}
	th, ob := tr.NewThread("t"), tr.NewObject("o")
	th.Write(ob, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverResumeRaces reopens a directory and immediately hammers the
// recovered tracker from many goroutines — commits racing Stream, Seal and
// Compact — to prove the reconstructed state is as concurrent-safe as a
// fresh tracker's. (Run under -race in the stress step.)
func TestRecoverResumeRaces(t *testing.T) {
	dir := t.TempDir()
	tr := runSealedWorkload(t, dir, 4, 3, 10)
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	pre := tr.Events()

	re, err := Open(dir, WithStore(Store{Spill: SpillPolicy{SealEvery: 64}}))
	if err != nil {
		t.Fatal(err)
	}
	threads, objects := re.Threads(), re.Objects()
	const perThread = 200
	var wg sync.WaitGroup
	for i, th := range threads {
		wg.Add(1)
		go func(i int, th *Thread) {
			defer wg.Done()
			for k := 0; k < perThread; k++ {
				op := event.OpWrite
				if k%3 == 0 {
					op = event.OpRead
				}
				th.Do(objects[(i+k)%len(objects)], op, nil)
			}
		}(i, th)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 5; k++ {
			var buf bytes.Buffer
			if err := re.SnapshotTo(&buf); err != nil {
				t.Errorf("SnapshotTo during races: %v", err)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := re.Seal(); err != nil {
			t.Errorf("Seal during races: %v", err)
		}
	}()
	wg.Wait()
	if got, want := re.Events(), pre+len(threads)*perThread; got != want {
		t.Errorf("Events = %d, want %d", got, want)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := re.Err(); err != nil {
		t.Fatal(err)
	}
	// And the whole thing reopens once more.
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Events() != pre+len(threads)*perThread {
		t.Errorf("second reopen at %d events, want %d", re2.Events(), pre+len(threads)*perThread)
	}
	if err := re2.Err(); err != nil {
		t.Fatal(err)
	}
}
