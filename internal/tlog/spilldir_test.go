package tlog

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mixedclock/internal/event"
	"mixedclock/internal/vfs"
)

// TestReadCatalogFallback checks the one catalog reader: catalog.json when
// it decodes, the .prev copy when it is torn or missing, and catalog.json's
// own error — NotExist only when the directory never held one — when
// neither file yields a catalog.
func TestReadCatalogFallback(t *testing.T) {
	dir := t.TempDir()
	cursorFixture(t, dir, 6, 3)
	cur := filepath.Join(dir, CatalogFileName)
	prev := filepath.Join(dir, CatalogPrevFileName)
	raw, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}

	if c, usedPrev, err := ReadCatalog(vfs.OS, dir); err != nil || usedPrev || c.SealedEvents != 6 {
		t.Fatalf("clean read: c=%v usedPrev=%v err=%v", c, usedPrev, err)
	}
	// Torn catalog.json, no prev: the decode error, not NotExist.
	if err := os.WriteFile(cur, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCatalog(vfs.OS, dir); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("torn catalog without prev: err=%v, want a decode error", err)
	}
	// Torn catalog.json with a prev: the prev generation.
	if err := os.WriteFile(prev, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if c, usedPrev, err := ReadCatalog(vfs.OS, dir); err != nil || !usedPrev || c.SealedEvents != 6 {
		t.Fatalf("torn catalog with prev: c=%v usedPrev=%v err=%v", c, usedPrev, err)
	}
	// Missing catalog.json (recovery quarantined it) with a prev.
	if err := os.Remove(cur); err != nil {
		t.Fatal(err)
	}
	if _, usedPrev, err := ReadCatalog(vfs.OS, dir); err != nil || !usedPrev {
		t.Fatalf("missing catalog with prev: usedPrev=%v err=%v", usedPrev, err)
	}
	// Neither: NotExist.
	if err := os.Remove(prev); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCatalog(vfs.OS, dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("no catalog: err=%v, want NotExist", err)
	}
}

// TestVerifySegment checks the one segment check accepts an intact listed
// file, visiting every record, and rejects each kind of disagreement with
// its catalog entry — including a file whose size and hash match but whose
// header names other events.
func TestVerifySegment(t *testing.T) {
	dir := t.TempDir()
	events, _ := cursorFixture(t, dir, 8, 4)
	cat, _, err := ReadCatalog(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	entry := cat.Segments[1]
	data, err := os.ReadFile(filepath.Join(dir, entry.Path))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	entry.SHA256 = hex.EncodeToString(sum[:])

	var seen []event.Event
	got, err := VerifySegment(vfs.OS, dir, entry, func(e event.Event) { seen = append(seen, e) })
	if err != nil || string(got) != string(data) {
		t.Fatalf("intact segment: err=%v, %d of %d bytes returned", err, len(got), len(data))
	}
	if len(seen) != 4 || seen[0] != events[4] || seen[3] != events[7] {
		t.Fatalf("visited %v, want events 4..7", seen)
	}

	// A copy of segment 0 under entry 1's name, with entry 1's size and
	// hash rewritten to match it.
	other, err := os.ReadFile(filepath.Join(dir, cat.Segments[0].Path))
	if err != nil {
		t.Fatal(err)
	}
	osum := sha256.Sum256(other)
	if err := os.WriteFile(filepath.Join(dir, "other.mvcseg"), other, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn.mvcseg"), data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*CatalogSegment)
		want string
	}{
		{"no path", func(e *CatalogSegment) { e.Path = "" }, "no spill file"},
		{"missing", func(e *CatalogSegment) { e.Path = "gone.mvcseg" }, "no such file"},
		{"size", func(e *CatalogSegment) { e.Bytes++ }, "catalog says"},
		{"hash", func(e *CatalogSegment) { e.SHA256 = strings.Repeat("0", 64) }, "hash mismatch"},
		{"header", func(e *CatalogSegment) {
			e.Path, e.Bytes, e.SHA256 = "other.mvcseg", int64(len(other)), hex.EncodeToString(osum[:])
		}, "header says"},
		{"torn", func(e *CatalogSegment) { e.Path, e.Bytes, e.SHA256 = "torn.mvcseg", int64(len(data)-2), "" }, "torn.mvcseg"},
	} {
		bad := entry
		tc.edit(&bad)
		if _, err := VerifySegment(vfs.OS, dir, bad, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}
