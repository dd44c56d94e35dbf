package track

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/vclock"
	"mixedclock/internal/vfs"
)

// TestOpenLegacyDelta02Directory pins backward compatibility of the segment
// payload: testdata/legacy-mvclog02 is a spill directory whose segments hold
// only full (tag 0) and delta (tag 1) records, written before the derived
// record tag existed, by
//
//	mvc gen -events 2000 -seed 3 |
//	    mvc export -live -out legacy-stamps.mvclog -spill legacy-mvclog02 -seal 50
//
// (catalog.json.prev dropped). legacy-stamps.mvclog is the same export's
// MVCLOG01 full-vector log: the stamps the tracker returned. Open must
// adopt every listed segment, quarantine nothing, and Stream must yield
// exactly those stamps, width for width; appending to the reopened run
// must still seal. The clocks Open restores from the newest segments must
// equal a replay of the whole resumed epoch.
func TestOpenLegacyDelta02Directory(t *testing.T) {
	dir := copyLegacyFixture(t, "legacy-mvclog02")
	wantTr, want := legacyStamps(t, "legacy-stamps.mvclog")
	tr := openLegacy(t, dir, wantTr, want, 40)
	resumeLegacy(t, tr, dir, len(want))
}

// TestOpenLegacyDerived02Directory is the same check on
// testdata/legacy-mvclog02-derived, whose segments are mostly MVCLOG02
// derived records (tag 2, explicit tick indices), written before the
// MVCLOG03 format by
//
//	mvc gen -events 2000 -seed 3 -threads 16 -objects 16 -reads 0.5 |
//	    mvc export -live -out legacy-derived-stamps.mvclog \
//	        -spill legacy-mvclog02-derived -seal 250
//
// (catalog.json.prev dropped). CompactSegments must then rewrite the 02
// segments into one MVCLOG03 segment that streams the same stamps, and the
// run must resume and reopen after that too.
func TestOpenLegacyDerived02Directory(t *testing.T) {
	dir := copyLegacyFixture(t, "legacy-mvclog02-derived")
	wantTr, want := legacyStamps(t, "legacy-derived-stamps.mvclog")
	tr := openLegacy(t, dir, wantTr, want, 8)
	for _, sg := range tr.Segments() {
		if v := payloadVersion(t, sg.Path); v != "MVCLOG02" {
			t.Fatalf("fixture segment %s holds %s", sg.Path, v)
		}
	}
	if n, err := tr.CompactSegments(CompactPolicy{}); err != nil || n != 7 {
		t.Fatalf("CompactSegments eliminated %d segments (err %v), want 7", n, err)
	}
	segs := tr.Segments()
	if len(segs) != 1 {
		t.Fatalf("%d segments after compaction, want 1", len(segs))
	}
	if v := payloadVersion(t, segs[0].Path); v != "MVCLOG03" {
		t.Fatalf("compacted segment holds %s, want MVCLOG03", v)
	}
	checkLegacyStream(t, tr, wantTr, want, len(want))
	resumeLegacy(t, tr, dir, len(want))
	tr2 := mustOpen(t, dir)
	defer tr2.Close()
	checkLegacyStream(t, tr2, wantTr, want, len(want)+1) // and the resumed event
}

// TestOpenLegacyResumeBackend pins that the resume manifest's backend field
// no longer matters. Trackers that offered a choice of clock representation
// recorded it there; this tracker keeps flat vectors whatever it names.
// With the field set to tree, auto or absent, testdata/legacy-mvclog02 must
// open as TestOpenLegacyDelta02Directory opens it, resume and reopen, and
// the republished catalog must no longer carry the field. A name no
// version accepted is still a corrupt catalog: Open sets it and the
// segments it lists aside.
func TestOpenLegacyResumeBackend(t *testing.T) {
	wantTr, want := legacyStamps(t, "legacy-stamps.mvclog")
	for _, c := range []struct{ name, backend string }{
		{"backend=tree", "tree"},
		{"backend=auto", "auto"},
		{"no-backend", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := copyLegacyFixture(t, "legacy-mvclog02")
			setResumeBackend(t, dir, c.backend)
			tr := openLegacy(t, dir, wantTr, want, 40)
			resumeLegacy(t, tr, dir, len(want))
			cat, _, err := tlog.ReadCatalog(vfs.OS, dir)
			if err != nil {
				t.Fatal(err)
			}
			if cat.Resume == nil || cat.Resume.Backend != "" {
				t.Fatalf("republished resume manifest %+v, want one without a backend", cat.Resume)
			}
		})
	}
	t.Run("backend=bogus", func(t *testing.T) {
		dir := copyLegacyFixture(t, "legacy-mvclog02")
		setResumeBackend(t, dir, "bogus")
		if _, _, err := tlog.ReadCatalog(vfs.OS, dir); err == nil {
			t.Fatal("catalog with backend \"bogus\" accepted")
		}
		tr := mustOpen(t, dir)
		defer tr.Close()
		if n := len(tr.Segments()); n != 0 {
			t.Fatalf("Open adopted %d segments under a rejected catalog", n)
		}
		if q := tr.Recovery().Quarantined; len(q) != 41 {
			t.Fatalf("Open quarantined %d files, want the catalog and its 40 segments", len(q))
		}
	})
}

// copyLegacyFixture copies testdata/name into a fresh directory, which it
// returns.
func copyLegacyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join("testdata", name)
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range files {
		data, err := os.ReadFile(filepath.Join(src, fi.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fi.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// setResumeBackend rewrites the resume manifest's backend field in dir's
// catalog (a fixture's reads "flat") to name, or drops it when name is "".
func setResumeBackend(t *testing.T, dir, name string) {
	t.Helper()
	path := filepath.Join(dir, tlog.CatalogFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := "\n    \"backend\": \"flat\","
	repl := ""
	if name != "" {
		repl = "\n    \"backend\": \"" + name + "\","
	}
	if !bytes.Contains(data, []byte(line)) {
		t.Fatalf("%s names no flat backend", path)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte(line), []byte(repl), 1), 0o644); err != nil {
		t.Fatal(err)
	}
}

// legacyStamps reads a fixture's expected stamps: testdata/name, an
// MVCLOG01 log of 2000 events.
func legacyStamps(t *testing.T, name string) (*event.Trace, []vclock.Vector) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	wantTr, want, err := tlog.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if wantTr.Len() != 2000 {
		t.Fatalf("fixture log holds %d events, want 2000", wantTr.Len())
	}
	return wantTr, want
}

// openLegacy opens the legacy run in dir and checks that it adopts all
// segs segments, quarantines nothing, restores the clocks a replay of the
// resumed epoch gives, and streams exactly the expected stamps.
func openLegacy(t *testing.T, dir string, wantTr *event.Trace, want []vclock.Vector, segs int) *Tracker {
	t.Helper()
	wantThreads, wantObjects := epochClocks(t, dir)
	tr := mustOpen(t, dir)
	if q := tr.Recovery().Quarantined; len(q) != 0 {
		t.Fatalf("Open quarantined %v", q)
	}
	checkRecoveredClocks(t, tr, wantThreads, wantObjects)
	if got := len(tr.Segments()); got != segs {
		t.Fatalf("Open adopted %d segments, want %d", got, segs)
	}
	checkLegacyStream(t, tr, wantTr, want, len(want))
	return tr
}

// checkLegacyStream checks that tr streams exactly records records, the
// first of them the expected records and stamps, width for width.
func checkLegacyStream(t *testing.T, tr *Tracker, wantTr *event.Trace, want []vclock.Vector, records int) {
	t.Helper()
	var c streamCollector
	if err := tr.Stream(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.events) != records {
		t.Fatalf("Stream yielded %d records, want %d", len(c.events), records)
	}
	for i, w := range want {
		e, we := c.events[i], wantTr.At(i)
		if e.Index != i || e.Thread != we.Thread || e.Object != we.Object || e.Op != we.Op {
			t.Fatalf("record %d is %v, want %v", i, e, we)
		}
		if !c.stamps[i].Equal(w) || len(c.stamps[i]) < len(w) {
			t.Fatalf("record %d stamp %v, want %v", i, c.stamps[i], w)
		}
	}
}

// resumeLegacy keeps the reopened run going: one more event, sealed on
// Close next to the legacy segments, and everything reopens again.
func resumeLegacy(t *testing.T, tr *Tracker, dir string, events int) {
	t.Helper()
	th, o := tr.NewThread("t-after"), tr.NewObject("o-after")
	th.Write(o, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2 := mustOpen(t, dir)
	defer tr2.Close()
	if q := tr2.Recovery().Quarantined; len(q) != 0 {
		t.Fatalf("second Open quarantined %v", q)
	}
	var c streamCollector
	if err := tr2.Stream(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.events) != events+1 {
		t.Fatalf("after resume, Stream yielded %d records, want %d", len(c.events), events+1)
	}
}

// payloadVersion returns the delta-format magic of the segment file at
// path's payload.
func payloadVersion(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"MVCLOG02", "MVCLOG03"} {
		if bytes.Contains(data, []byte(m)) {
			return m
		}
	}
	t.Fatalf("segment %s holds no delta stream", path)
	return ""
}
