package track

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"mixedclock/internal/tlog"
	"mixedclock/internal/vfs"
)

// TestDegradedModeENOSPC is the graceful-degradation acceptance test: a
// persistent ENOSPC on the spill path flips the tracker into degraded mode —
// commits keep succeeding fully in memory, Health and the catalog both say
// so — and once the disk recovers, the periodic probe re-arms auto-sealing,
// the accumulated tail reaches disk, and the published catalog is healthy
// again.
func TestDegradedModeENOSPC(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFaulty(vfs.OS)
	tr, err := Open(dir, WithStore(Store{
		Spill: SpillPolicy{SealEvery: 2, Probe: time.Millisecond},
		FS:    fi,
	}))
	if err != nil {
		t.Fatal(err)
	}
	th := tr.NewThread("t0")
	ob := tr.NewObject("o0")

	// A healthy seal first, so degradation is a transition, not a birth state.
	th.Write(ob, nil)
	th.Write(ob, nil)
	th.Write(ob, nil)
	if h := tr.Health(); h.Degraded || h.SealDisarmed {
		t.Fatalf("degraded before any fault: %+v", h)
	}

	// The disk fills: every durable operation fails with ENOSPC, which the
	// retry layer classifies as non-transient, so the very first failed
	// auto-seal flips degraded mode.
	fi.Script(vfs.Rule{Ops: vfs.MutatingOps, Err: syscall.ENOSPC})
	before := tr.Events()
	for i := 0; i < 20; i++ {
		th.Write(ob, nil)
	}
	if got := tr.Events(); got != before+20 {
		t.Fatalf("commits under ENOSPC: Events %d, want %d", got, before+20)
	}
	h := tr.Health()
	if !h.Degraded || !h.SealDisarmed {
		t.Fatalf("not degraded under persistent ENOSPC: %+v", h)
	}
	if h.Since.IsZero() {
		t.Error("degraded Health has zero Since")
	}
	if h.UnsealedEvents == 0 {
		t.Error("degraded Health reports no unsealed events")
	}
	if h.Err == nil || !errors.Is(h.Err, syscall.ENOSPC) {
		t.Errorf("Health.Err = %v, want ENOSPC", h.Err)
	}
	c := tr.Catalog()
	if !c.AutoSealDisarmed {
		t.Error("catalog does not report auto-seal disarmed")
	}
	if c.DegradedSinceUnix == 0 {
		t.Error("catalog does not report degraded-since")
	}

	// The disk recovers. The probe (rate-limited to Probe = 1ms) re-arms
	// auto-sealing from the commit path; the next commit seals the tail and
	// clears degraded mode.
	fi.Heal()
	deadline := time.Now().Add(10 * time.Second)
	for tr.Health().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("still degraded long after the disk recovered: %+v", tr.Health())
		}
		th.Write(ob, nil)
		time.Sleep(2 * time.Millisecond)
	}
	h = tr.Health()
	if h.SealDisarmed {
		t.Errorf("recovered but auto-seal still disarmed: %+v", h)
	}
	c = tr.Catalog()
	if c.AutoSealDisarmed || c.DegradedSinceUnix != 0 {
		t.Errorf("recovered catalog still degraded: disarmed=%v since=%d", c.AutoSealDisarmed, c.DegradedSinceUnix)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// The published document agrees, and the directory reopens cleanly with
	// every committed event sealed.
	f, err := os.Open(filepath.Join(dir, tlog.CatalogFileName))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := tlog.DecodeCatalog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cat.AutoSealDisarmed || cat.DegradedSinceUnix != 0 {
		t.Errorf("published catalog still degraded: disarmed=%v since=%d", cat.AutoSealDisarmed, cat.DegradedSinceUnix)
	}
	if !cat.Closed {
		t.Error("published catalog not marked Closed")
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got, want := reopened.Events(), tr.Events(); got != want {
		t.Errorf("reopened run has %d events, want %d", got, want)
	}
}

// TestDegradedSinceSticky checks the degraded-since stamp marks the START of
// trouble: repeated seal failures must not advance it.
func TestDegradedSinceSticky(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFaulty(vfs.OS)
	tr, err := Open(dir, WithStore(Store{
		Spill: SpillPolicy{SealEvery: 1, Probe: time.Hour}, // probe never fires
		FS:    fi,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	th := tr.NewThread("t0")
	ob := tr.NewObject("o0")
	fi.Script(vfs.Rule{Ops: vfs.MutatingOps, Err: syscall.ENOSPC})

	th.Write(ob, nil)
	tr.waitIdle()
	first := tr.Health().Since
	if first.IsZero() {
		t.Fatal("no degraded-since after a failed seal")
	}
	time.Sleep(5 * time.Millisecond)
	th.Write(ob, nil)
	th.Write(ob, nil)
	tr.waitIdle()
	if again := tr.Health().Since; !again.Equal(first) {
		t.Errorf("degraded-since moved from %v to %v across repeated failures", first, again)
	}
}
