package mixedclock_test

import (
	"bytes"
	"sync"
	"testing"

	"mixedclock"
)

// openTracker is Open("") for tests and benchmarks: an in-memory tracker,
// with an error failing tb.
func openTracker(tb testing.TB, opts ...mixedclock.TrackerOption) *mixedclock.Tracker {
	tb.Helper()
	tracker, err := mixedclock.Open("", opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return tracker
}

// TestFacadeOfflineWorkflow exercises the documented offline path end to
// end through the public API only.
func TestFacadeOfflineWorkflow(t *testing.T) {
	tr := mixedclock.NewTrace()
	tr.Append(1, 0, mixedclock.OpWrite) // [T2, O1]
	tr.Append(0, 1, mixedclock.OpWrite) // [T1, O2]
	tr.Append(1, 2, mixedclock.OpWrite) // [T2, O3]
	tr.Append(2, 2, mixedclock.OpWrite) // [T3, O3]
	tr.Append(3, 1, mixedclock.OpWrite) // [T4, O2]
	tr.Append(1, 1, mixedclock.OpWrite) // [T2, O2]
	tr.Append(2, 1, mixedclock.OpWrite) // [T3, O2]
	tr.Append(1, 3, mixedclock.OpWrite) // [T2, O4]

	a := mixedclock.AnalyzeTrace(tr)
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	if a.VectorSize() != 3 {
		t.Fatalf("optimal size = %d, want 3", a.VectorSize())
	}
	stamps := mixedclock.Run(tr, a.NewClock())
	if err := mixedclock.Validate(tr, stamps, "facade"); err != nil {
		t.Fatal(err)
	}
	// Happened-before queries straight off the stamps.
	if !stamps[0].Less(stamps[3]) {
		t.Error("[T2,O1] should precede [T3,O3]")
	}
	if !stamps[0].Concurrent(stamps[1]) {
		t.Error("[T2,O1] and [T1,O2] should be concurrent")
	}
}

func TestFacadeOnlineWorkflow(t *testing.T) {
	clk := mixedclock.NewOnlineClock(mixedclock.NewHybrid())
	tr := mixedclock.NewTrace()
	tr.Append(0, 0, mixedclock.OpWrite)
	tr.Append(1, 0, mixedclock.OpWrite)
	tr.Append(0, 1, mixedclock.OpRead)
	stamps := mixedclock.Run(tr, clk)
	if err := mixedclock.Validate(tr, stamps, clk.Name()); err != nil {
		t.Fatal(err)
	}
	if clk.Components() == 0 {
		t.Fatal("online clock never grew")
	}
}

func TestFacadeTracker(t *testing.T) {
	tracker := openTracker(t, mixedclock.WithMechanism(mixedclock.Popularity{}))
	shared := tracker.NewObject("shared")

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		th := tracker.NewThread("worker")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				th.Write(shared, nil)
			}
		}()
	}
	wg.Wait()

	if tracker.Events() != 20 {
		t.Fatalf("Events = %d, want 20", tracker.Events())
	}
	trace, stamps := tracker.Snapshot()
	if err := mixedclock.Validate(trace, stamps, "tracker"); err != nil {
		t.Fatal(err)
	}
	// The materializing Snapshot and the streamed log must agree.
	var log bytes.Buffer
	if err := tracker.SnapshotTo(&log); err != nil {
		t.Fatal(err)
	}
	logTrace, logStamps, err := mixedclock.ReadLog(&log)
	if err != nil {
		t.Fatal(err)
	}
	if logTrace.Len() != trace.Len() || len(logStamps) != len(stamps) {
		t.Fatal("Snapshot disagrees with SnapshotTo")
	}
	for i := range stamps {
		if !logStamps[i].Equal(stamps[i]) {
			t.Fatalf("stamp %d: Snapshot %v, SnapshotTo %v", i, stamps[i], logStamps[i])
		}
	}
	// Everything funnels through one object. Popularity's tie-break picks
	// the first thread before the object becomes popular, so the size is 2:
	// that first thread plus the shared object (the optimum is 1).
	if tracker.Size() > 2 {
		t.Fatalf("Size = %d, want ≤ 2 (single shared object)", tracker.Size())
	}
}

func TestFacadeTraceSerialization(t *testing.T) {
	tr := mixedclock.NewTrace()
	tr.Append(0, 0, mixedclock.OpWrite)
	tr.Append(1, 2, mixedclock.OpRead)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := mixedclock.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.At(1).Op != mixedclock.OpRead {
		t.Fatalf("round trip lost data: %+v", got.Events())
	}
}

func TestFacadeGraph(t *testing.T) {
	tr := mixedclock.NewTrace()
	tr.Append(0, 0, mixedclock.OpWrite)
	tr.Append(0, 1, mixedclock.OpWrite)
	g := mixedclock.GraphFromTrace(tr)
	if g.Edges() != 2 || !g.HasEdge(0, 1) {
		t.Fatalf("graph wrong: %v", g)
	}
	a := mixedclock.Analyze(g)
	if a.VectorSize() != 1 {
		t.Fatalf("one thread covers everything; size = %d", a.VectorSize())
	}
}

func TestFacadeOrderingConstants(t *testing.T) {
	v := mixedclock.Vector{1, 0}
	w := mixedclock.Vector{1, 1}
	if v.Compare(w) != mixedclock.Before || w.Compare(v) != mixedclock.After {
		t.Error("ordering constants broken")
	}
	if v.Compare(v.Clone()) != mixedclock.Equal {
		t.Error("Equal broken")
	}
	if mixedclock.Vector([]uint64{1, 0}).Compare(mixedclock.Vector{0, 1}) != mixedclock.Concurrent {
		t.Error("Concurrent broken")
	}
}
