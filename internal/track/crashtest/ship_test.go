package crashtest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mixedclock/internal/tlog"
	"mixedclock/internal/track"
	"mixedclock/internal/vfs"
)

// checkMirror verifies a shipped mirror's self-consistency: its catalog (if
// any) lists only segment files the mirror actually holds, each with the
// promised size and content hash. When full is true the mirror must also
// cover the whole source extent — the post-re-ship state.
func checkMirror(t *testing.T, dst string, wantSealed int, full bool) {
	t.Helper()
	f, err := os.Open(filepath.Join(dst, tlog.CatalogFileName))
	if err != nil {
		if full {
			t.Fatalf("complete mirror has no catalog: %v", err)
		}
		// The crash froze shipping before the catalog was mirrored; the
		// mirror is a plain pile of verified segment copies — fine.
		return
	}
	cat, err := tlog.DecodeCatalog(f)
	f.Close()
	if err != nil {
		t.Fatalf("mirror catalog unreadable: %v", err)
	}
	if full && cat.SealedEvents != wantSealed {
		t.Fatalf("complete mirror covers %d events, want %d", cat.SealedEvents, wantSealed)
	}
	for _, sg := range cat.Segments {
		data, err := os.ReadFile(filepath.Join(dst, sg.Path))
		if err != nil {
			t.Fatalf("mirror catalog lists %s but: %v", sg.Path, err)
		}
		if int64(len(data)) != sg.Bytes {
			t.Fatalf("mirror %s holds %d bytes, catalog says %d", sg.Path, len(data), sg.Bytes)
		}
		if sg.SHA256 != "" {
			sum := sha256.Sum256(data)
			if hex.EncodeToString(sum[:]) != sg.SHA256 {
				t.Fatalf("mirror %s content hash mismatch", sg.Path)
			}
		}
	}
}

// TestShipperCrashSweep crashes a shipping pass at every durable-op index:
// the half-shipped mirror must stay self-consistent (its catalog — mirrored
// last — never lists a file it does not fully hold), and a re-ship on the
// recovered filesystem must complete the mirror.
func TestShipperCrashSweep(t *testing.T) {
	// A sealed, compacted, cleanly closed source run to ship from.
	src := t.TempDir()
	cfg := sweepConfig{
		name:      "ship-src",
		spill:     track.SpillPolicy{SealEvery: 4},
		rounds:    6,
		compactAt: map[int]int{2: 1},
	}
	tr, err := openAndRun(src, cfg.store(nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	srcSealed := tr.Events()
	cursor := filepath.Join(src, tlog.ShipCursorFileName)

	// Count a fault-free ship's durable ops — the sweep's index space.
	fi := vfs.NewFaulty(vfs.OS)
	if _, err := (&track.Shipper{Src: src, Dst: t.TempDir(), FS: fi}).ConsumeUpTo(0); err != nil {
		t.Fatal(err)
	}
	n := fi.Ops()
	if n == 0 {
		t.Fatal("shipping performs no durable operations; nothing to sweep")
	}
	if err := os.Remove(cursor); err != nil {
		t.Fatal(err)
	}

	base := t.TempDir()
	for k := int64(0); k < n; k++ {
		dst := filepath.Join(base, fmt.Sprintf("k%d", k))
		fi := vfs.NewFaulty(vfs.OS)
		fi.CrashAt(k)
		if _, err := (&track.Shipper{Src: src, Dst: dst, FS: fi}).ConsumeUpTo(0); err == nil {
			t.Fatalf("k=%d: shipping succeeded through a crash", k)
		}
		checkMirror(t, dst, srcSealed, false)

		// The machine comes back; the same mirror must complete.
		rep, err := (&track.Shipper{Src: src, Dst: dst}).ConsumeUpTo(0)
		if err != nil {
			t.Fatalf("k=%d: re-ship after crash: %v", k, err)
		}
		if rep.SealedEvents != srcSealed {
			t.Fatalf("k=%d: re-ship covered %d events, want %d", k, rep.SealedEvents, srcSealed)
		}
		checkMirror(t, dst, srcSealed, true)
		// The cursor the re-ship persisted in Src would make the next
		// iteration skip work; the sweep wants identical op sequences.
		if err := os.Remove(cursor); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestShipperCrashLeavesSourceIntact is the other half of the shipping
// contract: a crashed shipper must not have damaged the source run — it is
// read-only on Src except for the cursor file, and the frozen filesystem
// means even that never landed.
func TestShipperCrashLeavesSourceIntact(t *testing.T) {
	src := t.TempDir()
	cfg := sweepConfig{
		name:   "ship-src",
		spill:  track.SpillPolicy{SealEvery: 4},
		rounds: 4,
	}
	tr, err := openAndRun(src, cfg.store(nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	fi := vfs.NewFaulty(vfs.OS)
	fi.CrashAt(2)
	if _, err := (&track.Shipper{Src: src, Dst: t.TempDir(), FS: fi}).ConsumeUpTo(0); err == nil {
		t.Fatal("shipping succeeded through a crash")
	}
	re, err := track.Open(src)
	if err != nil {
		t.Fatalf("source run damaged by a crashed shipper: %v", err)
	}
	defer re.Close()
	if got, want := re.Events(), tr.Events(); got != want {
		t.Fatalf("source run has %d events after a crashed ship, want %d", got, want)
	}
	if q := re.Recovery().Quarantined; len(q) != 0 {
		t.Fatalf("crashed shipper caused quarantines in the source: %v", q)
	}
}
