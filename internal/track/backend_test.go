package track

import (
	"sync"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// TestTrackerTreeBackend runs real goroutines through a tree-backed tracker,
// compacts mid-run, and validates the full recorded computation against the
// happened-before oracle. Run under -race in CI.
func TestTrackerTreeBackend(t *testing.T) {
	tracker := mustOpen(t, "", WithBackend(vclock.BackendTree))
	if tracker.Backend() != vclock.BackendTree {
		t.Fatalf("Backend = %v", tracker.Backend())
	}

	const nWorkers, nObjects, opsPerWorker = 4, 3, 25
	objects := make([]*Object, nObjects)
	for i := range objects {
		objects[i] = tracker.NewObject("obj")
	}
	run := func() {
		var wg sync.WaitGroup
		for w := 0; w < nWorkers; w++ {
			wg.Add(1)
			th := tracker.NewThread("worker")
			go func(th *Thread, w int) {
				defer wg.Done()
				for i := 0; i < opsPerWorker; i++ {
					th.Write(objects[(w+i)%nObjects], nil)
				}
			}(th, w)
		}
		wg.Wait()
	}

	run()
	epoch, size, err := tracker.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || size == 0 {
		t.Fatalf("Compact = epoch %d size %d", epoch, size)
	}
	// The compacted clock must keep the tree backend.
	run()

	if err := tracker.Err(); err != nil {
		t.Fatal(err)
	}
	// Validate each epoch's stamps independently (epochs are barriers; the
	// cross-epoch order is by construction).
	full, stamps := tracker.Snapshot()
	starts := append(tracker.EpochStarts(), full.Len())
	for e := 0; e+1 < len(starts); e++ {
		seg := event.NewTrace()
		for i := starts[e]; i < starts[e+1]; i++ {
			ev := full.At(i)
			seg.Append(ev.Thread, ev.Object, ev.Op)
		}
		if err := clock.Validate(seg, stamps[starts[e]:starts[e+1]], "tracker/tree"); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
}

// TestTrackerBackendsAgree replays one interleaving through a flat and a
// tree tracker and requires identical stamps.
func TestTrackerBackendsAgree(t *testing.T) {
	type op struct{ thread, object int }
	var script []op
	for i := 0; i < 60; i++ {
		script = append(script, op{thread: i % 3, object: (i * 7) % 4})
	}
	runScript := func(b vclock.Backend) []vclock.Vector {
		tracker := mustOpen(t, "", WithBackend(b))
		threads := make([]*Thread, 3)
		for i := range threads {
			threads[i] = tracker.NewThread("t")
		}
		objects := make([]*Object, 4)
		for i := range objects {
			objects[i] = tracker.NewObject("o")
		}
		for _, o := range script {
			threads[o.thread].Write(objects[o.object], nil)
		}
		if err := tracker.Err(); err != nil {
			t.Fatal(err)
		}
		_, stamps := tracker.Snapshot()
		return stamps
	}
	flat := runScript(vclock.BackendFlat)
	tree := runScript(vclock.BackendTree)
	for i := range flat {
		if !flat[i].Equal(tree[i]) {
			t.Fatalf("event %d: flat %v, tree %v", i, flat[i], tree[i])
		}
	}
}
