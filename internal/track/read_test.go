package track

import (
	"sync"
	"testing"
	"time"

	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/vclock"
)

// TestReaderCallbacksOverlap pins the read fast path's user-visible half:
// two Read callbacks on the same object run under the shared side of the
// stripe, so they can be in flight simultaneously. Each callback waits for
// the other to start; if reads still serialized, this would deadlock.
func TestReaderCallbacksOverlap(t *testing.T) {
	tr := mustOpen(t, "")
	o := tr.NewObject("o")
	a := tr.NewThread("a")
	b := tr.NewThread("b")
	a.Write(o, nil) // reveal the edge and give the object a clock

	aIn, bIn := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			a.Read(o, func() { close(aIn); <-bIn })
		}()
		go func() {
			defer wg.Done()
			b.Read(o, func() { close(bIn); <-aIn })
		}()
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent read callbacks on one object deadlocked: reads are serializing")
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if err := validate(tr, "overlapping-reads"); err != nil {
		t.Fatal(err)
	}
}

// TestWriterExcludesReaders pins the other half of the stripe contract: a
// write callback holds the object exclusively, so a concurrent read cannot
// observe it mid-flight.
func TestWriterExcludesReaders(t *testing.T) {
	tr := mustOpen(t, "")
	o := tr.NewObject("o")
	w := tr.NewThread("w")
	r := tr.NewThread("r")

	var state int
	inWrite := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w.Write(o, func() {
			state = 1
			close(inWrite)
			<-release
			state = 2
		})
	}()
	go func() {
		defer wg.Done()
		<-inWrite
		close(release)
		r.Read(o, func() {
			if state != 2 {
				t.Errorf("read observed state %d mid-write", state)
			}
		})
	}()
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSameObjectFastPathStamps drives the re-acquisition fast path (a thread
// hammering one object) interleaved with occasional cross-thread traffic
// that invalidates the version cache, and validates every recorded stamp
// against the happened-before oracle.
func TestSameObjectFastPathStamps(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		tr := mustOpen(t, "")
		hot := tr.NewObject("hot")
		other := tr.NewObject("other")
		a := tr.NewThread("a")
		b := tr.NewThread("b")

		for i := 0; i < 120; i++ {
			// Runs of same-object ops (fast path) with periodic cache
			// breakers: b commits on hot, or a detours via other.
			a.Read(hot, nil)
			a.Write(hot, nil)
			switch i % 10 {
			case 4:
				b.Write(hot, nil)
			case 9:
				a.Write(other, nil)
			}
		}
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
		trace, stamps := tr.Snapshot()
		if err := clock.Validate(trace, stamps, "fast-path"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFastPathMatchesSlowPath replays one deterministic same-object-heavy
// script through a tracker and through the offline online clock (which runs
// the full update rule on every event, with no re-acquisition fast path)
// and requires identical stamps — the fast path must be invisible in the
// produced timestamps.
func TestFastPathMatchesSlowPath(t *testing.T) {
	tr := mustOpen(t, "")
	th := []*Thread{tr.NewThread("x"), tr.NewThread("y")}
	obj := []*Object{tr.NewObject("p"), tr.NewObject("q")}
	for i := 0; i < 80; i++ {
		// Long same-object runs with occasional switches.
		tid := (i / 25) % 2
		oid := (i / 40) % 2
		if i%3 == 0 {
			th[tid].Read(obj[oid], nil)
		} else {
			th[tid].Write(obj[oid], nil)
		}
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	trace, stamps := tr.Snapshot()
	slow := clock.Run(trace, core.NewOnlineMixedClock(core.NewHybrid()))
	for i := range stamps {
		if !stamps[i].Equal(slow[i]) || len(stamps[i]) != len(slow[i]) {
			t.Fatalf("event %d: tracker %v, update rule %v", i, stamps[i], slow[i])
		}
	}
}

// TestReadHeavyParallelValid hammers one object with many concurrent
// readers and a trickle of writers, then validates the full computation —
// the workload the read fast path exists for, run under -race in CI.
func TestReadHeavyParallelValid(t *testing.T) {
	tr := mustOpen(t, "")
	hot := tr.NewObject("hot")
	const nReaders, nWriters, opsPer = 6, 2, 150
	var wg sync.WaitGroup
	for i := 0; i < nReaders; i++ {
		th := tr.NewThread("reader")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				th.Read(hot, nil)
			}
		}()
	}
	for i := 0; i < nWriters; i++ {
		th := tr.NewThread("writer")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				th.Write(hot, nil)
			}
		}()
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	trace, stamps := tr.Snapshot()
	if got, want := trace.Len(), (nReaders+nWriters)*opsPer; got != want {
		t.Fatalf("recorded %d events, want %d", got, want)
	}
	if err := clock.Validate(trace, stamps, "read-heavy"); err != nil {
		t.Fatal(err)
	}
}

// TestLazyStampMaterialization pins the Stamped contract after the delta
// rework: Vector() reconstructs the exact stamp (matching Snapshot()), copies
// are independent of tracker internals and of each other, materialization
// works from inside a Do callback and across compactions, and nothing is
// memoized: a stamp read before retention retires its segment reads nil
// afterwards, like one never read.
func TestLazyStampMaterialization(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("t")
	o := tr.NewObject("o")

	var collected []Stamped
	for i := 0; i < 5; i++ {
		collected = append(collected, th.Write(o, nil))
	}
	_, stamps := tr.Snapshot()
	for i, s := range collected {
		if got := s.Vector(); !got.Equal(stamps[i]) {
			t.Fatalf("stamp %d: lazy %v, merged %v", i, got, stamps[i])
		}
		if len(s.Vector()) != len(stamps[i]) {
			t.Fatalf("stamp %d: width %d, want %d", i, len(s.Vector()), len(stamps[i]))
		}
	}
	// Each call rebuilds the stamp: equal vectors, no shared storage.
	if a, b := collected[1].Vector(), collected[1].Vector(); !a.Equal(b) || len(a) == 0 || &a[0] == &b[0] {
		t.Fatalf("two Vector calls on one tail stamp: %v and %v, want equal and unshared", a, b)
	}
	// Mutating a returned vector must not corrupt the tracker's history.
	v := collected[0].Vector()
	v[0] = 999
	if _, again := tr.Snapshot(); again[0].At(0) == 999 || collected[0].Vector().At(0) == 999 {
		t.Fatal("Vector() leaked shared storage")
	}
	// Materialization inside a callback takes the same barrier Snapshot
	// does; it must not deadlock and must see the committed stamp.
	var inside vclock.Vector
	th.Write(o, func() { inside = collected[2].Vector() })
	if !inside.Equal(stamps[2]) {
		t.Fatalf("in-callback materialization %v, want %v", inside, stamps[2])
	}
	// Stamps materialized before a compaction stay correct after it.
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	post := th.Write(o, nil)
	if !collected[4].HappenedBefore(post) {
		t.Fatal("cross-epoch order lost after lazy materialization")
	}
	if got := collected[3].Vector(); !got.Equal(stamps[3]) {
		t.Fatalf("pre-compaction stamp changed: %v vs %v", got, stamps[3])
	}
	if zero := (Stamped{}); zero.Vector() != nil {
		t.Fatal("zero Stamped should have nil vector")
	}

	// A stamp read before its segment retires is not kept: after Seal,
	// Compact and RetainSegments it reads nil, and Err notes it (as in
	// TestRetainStampRetired, for a stamp never read).
	rt, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rth, rob := rt.NewThread("t0"), rt.NewObject("o0")
	early := rth.Write(rob, nil)
	for i := 0; i < 9; i++ {
		rth.Write(rob, nil)
	}
	if early.Vector() == nil {
		t.Fatal("tail stamp materialized as nil before retention")
	}
	if err := rt.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RetainSegments(RetainPolicy{MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if v := early.Vector(); v != nil {
		t.Errorf("stamp read before retention materialized as %v after it, want nil", v)
	}
	if rt.Err() == nil {
		t.Error("retired-stamp access not noted in Err")
	}
}
