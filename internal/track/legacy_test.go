package track

import (
	"os"
	"path/filepath"
	"testing"

	"mixedclock/internal/tlog"
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
	f, err := os.Open(filepath.Join("testdata", "legacy-stamps.mvclog"))
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

	dir := filepath.Join(t.TempDir(), "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join("testdata", "legacy-mvclog02")
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

	wantThreads, wantObjects := epochClocks(t, dir)
	tr := mustOpen(t, dir)
	if q := tr.Recovery().Quarantined; len(q) != 0 {
		t.Fatalf("Open quarantined %v", q)
	}
	checkRecoveredClocks(t, tr, wantThreads, wantObjects)
	if got := len(tr.Segments()); got != 40 {
		t.Fatalf("Open adopted %d segments, want 40", got)
	}
	var c streamCollector
	if err := tr.Stream(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.events) != len(want) {
		t.Fatalf("Stream yielded %d records, want %d", len(c.events), len(want))
	}
	for i, e := range c.events {
		w := wantTr.At(i)
		if e.Index != i || e.Thread != w.Thread || e.Object != w.Object || e.Op != w.Op {
			t.Fatalf("record %d is %v, want %v", i, e, w)
		}
		if !c.stamps[i].Equal(want[i]) || len(c.stamps[i]) < len(want[i]) {
			t.Fatalf("record %d stamp %v, want %v", i, c.stamps[i], want[i])
		}
	}

	// The reopened run keeps going: one more event, sealed on Close next
	// to the legacy segments, and everything reopens again.
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
	c = streamCollector{}
	if err := tr2.Stream(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.events) != len(want)+1 {
		t.Fatalf("after resume, Stream yielded %d records, want %d", len(c.events), len(want)+1)
	}
}
