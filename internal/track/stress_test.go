package track

import (
	"fmt"
	"sync"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// validateEpochs splits the recorded computation at the epoch boundaries and
// checks each segment is a valid vector clock for its sub-computation.
func validateEpochs(t *testing.T, tr *Tracker) {
	t.Helper()
	full, stamps := tr.Snapshot()
	starts := append(tr.EpochStarts(), full.Len())
	for e := 0; e+1 < len(starts); e++ {
		seg := event.NewTrace()
		for i := starts[e]; i < starts[e+1]; i++ {
			ev := full.At(i)
			seg.Append(ev.Thread, ev.Object, ev.Op)
		}
		if err := clock.Validate(seg, stamps[starts[e]:starts[e+1]], fmt.Sprintf("epoch-%d", e)); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
}

// TestCompactRacesDo hammers the tracker from worker goroutines while the
// main goroutine compacts repeatedly, with no synchronization between them
// beyond the tracker's own barrier. It asserts the epoch barrier totally
// orders cross-epoch stamps: every stamp's Epoch matches the epoch segment
// its event index landed in (so no operation straddled a compaction), each
// epoch's segment is a valid vector clock, and cross-epoch pairs compare by
// epoch order.
func TestCompactRacesDo(t *testing.T) {
	for _, backend := range []vclock.Backend{vclock.BackendFlat, vclock.BackendTree} {
		t.Run(backend.String(), func(t *testing.T) {
			tr := mustOpen(t, "", WithBackend(backend))
			const nWorkers, nObjects, opsPer, compactions = 8, 5, 300, 6
			objects := make([]*Object, nObjects)
			for i := range objects {
				objects[i] = tr.NewObject("obj")
			}
			recorded := make([][]Stamped, nWorkers)
			var wg sync.WaitGroup
			for w := 0; w < nWorkers; w++ {
				th := tr.NewThread("worker")
				wg.Add(1)
				go func(th *Thread, w int) {
					defer wg.Done()
					for i := 0; i < opsPer; i++ {
						s := th.Write(objects[(w+i)%nObjects], nil)
						recorded[w] = append(recorded[w], s)
					}
				}(th, w)
			}
			for c := 0; c < compactions; c++ {
				if _, _, err := tr.Compact(); err != nil {
					t.Error(err)
					break
				}
			}
			wg.Wait()
			if err := tr.Err(); err != nil {
				t.Fatal(err)
			}
			if got, want := tr.Events(), nWorkers*opsPer; got != want {
				t.Fatalf("Events = %d, want %d", got, want)
			}

			// Each stamp's epoch tag must agree with where its event landed
			// in the merged trace — the barrier quiesced in-flight Do calls.
			for _, stamps := range recorded {
				for _, s := range stamps {
					if got := tr.EpochOf(s.Event.Index); got != s.Epoch {
						t.Fatalf("event %d stamped in epoch %d but recorded in segment %d",
							s.Event.Index, s.Epoch, got)
					}
				}
			}
			// Cross-epoch stamps are totally ordered by epoch; program order
			// within a worker must agree.
			for _, stamps := range recorded {
				for i := 1; i < len(stamps); i++ {
					prev, cur := stamps[i-1], stamps[i]
					if prev.Epoch > cur.Epoch {
						t.Fatalf("worker's epochs went backwards: %d then %d", prev.Epoch, cur.Epoch)
					}
					if got := prev.Order(cur); got != vclock.Before {
						t.Fatalf("program order lost across stamps %v → %v: %v",
							prev.Event, cur.Event, got)
					}
				}
			}
			validateEpochs(t, tr)
		})
	}
}

// TestAccessorsRaceCompact pins the cover-swap race fixed after review:
// Size and Components read the cover pointer, which Compact replaces, so
// the pointer is atomic (no world lock — the accessors stay safe even from
// inside a Do callback). Run under -race.
func TestAccessorsRaceCompact(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("t")
	o := tr.NewObject("o")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			th.Write(o, nil)
			_ = tr.Size()
			_ = tr.Components()
			_ = tr.Events()
		}
	}()
	for i := 0; i < 50; i++ {
		if _, _, err := tr.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCallbackMayBlock pins the Do-callback contract: the world read lock
// covers only the commit, so a callback blocked on external synchronization
// cannot deadlock a concurrent Snapshot/Compact (a hang the pre-sharding
// tracker never had, and an early draft of this one did).
func TestCallbackMayBlock(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("t")
	o := tr.NewObject("o")
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan Stamped)
	go func() {
		done <- th.Write(o, func() {
			close(started)
			<-release // block inside the callback
		})
	}()
	<-started
	// The callback is blocked right now; barriers must still complete.
	tr.Snapshot()
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	close(release)
	s := <-done
	// The operation straddled the compaction, so it commits into epoch 1.
	if s.Epoch != 1 {
		t.Fatalf("straddling op committed in epoch %d, want 1", s.Epoch)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerMethodsInsideCallback pins that Tracker methods — snapshots
// and compaction included — are legal from inside a Do callback.
func TestTrackerMethodsInsideCallback(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("t")
	o := tr.NewObject("o")
	th.Write(o, nil)
	s := th.Write(o, func() {
		_ = tr.Size()
		_ = tr.Components()
		trace, stamps := tr.Snapshot()
		if trace.Len() != 1 || len(stamps) != 1 {
			t.Errorf("snapshot inside callback: %d events, %d stamps", trace.Len(), len(stamps))
		}
		if _, _, err := tr.Compact(); err != nil {
			t.Error(err)
		}
	})
	if s.Epoch != 1 {
		t.Fatalf("op whose callback compacted committed in epoch %d, want 1", s.Epoch)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	validateEpochs(t, tr)
}

// TestTrackerParallelStress is the load test CI runs under -race -count=3:
// concurrent Do on shared objects, racing thread/object registration, and
// concurrent snapshot readers, followed by full validation of the recorded
// computation.
func TestTrackerParallelStress(t *testing.T) {
	tr := mustOpen(t, "")
	const nWorkers, opsPer = 8, 250
	seedObjects := make([]*Object, 4)
	for i := range seedObjects {
		seedObjects[i] = tr.NewObject("seed")
	}
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Register mid-flight: registration must not disturb commits.
			th := tr.NewThread("stress")
			private := tr.NewObject("private")
			for i := 0; i < opsPer; i++ {
				switch i % 4 {
				case 0:
					th.Write(private, nil)
				case 1:
					th.Read(seedObjects[(w+i)%len(seedObjects)], nil)
				default:
					th.Write(seedObjects[(w*i)%len(seedObjects)], nil)
				}
			}
		}(w)
	}
	// Concurrent snapshot readers: prefixes must always be consistent
	// (stamps aligned with trace, no torn merges).
	done := make(chan struct{})
	var snapErr error
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			trace, stamps := tr.Snapshot()
			if trace.Len() != len(stamps) {
				snapErr = fmt.Errorf("snapshot torn: %d events, %d stamps", trace.Len(), len(stamps))
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Events(), nWorkers*opsPer; got != want {
		t.Fatalf("Events = %d, want %d", got, want)
	}
	trace, stamps := tr.Snapshot()
	if err := clock.Validate(trace, stamps, "parallel-stress"); err != nil {
		t.Fatal(err)
	}
}
