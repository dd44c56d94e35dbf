package track

import (
	"sync"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/vclock"
)

// driftTracker builds a tracker whose online clock has drifted above the
// offline optimum: 8 threads funnel through 2 hot objects, but popularity's
// early tie-breaks admitted extra thread components.
func driftTracker(t *testing.T) *Tracker {
	t.Helper()
	tr := mustOpen(t, "", WithMechanism(core.Popularity{}))
	hot1 := tr.NewObject("hot1")
	hot2 := tr.NewObject("hot2")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		th := tr.NewThread("w")
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if (k+j)%2 == 0 {
					th.Write(hot1, nil)
				} else {
					th.Write(hot2, nil)
				}
			}
		}(i)
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCompactShrinksToOptimal(t *testing.T) {
	tr := driftTracker(t)
	before := tr.Size()

	epoch, size, err := tr.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epoch)
	}
	// The optimal cover of an 8-threads-over-2-objects funnel is the two
	// objects.
	if size != 2 {
		t.Fatalf("compacted size = %d, want 2 (two hot objects)", size)
	}
	if before <= size {
		t.Fatalf("compaction pointless: before %d, after %d", before, size)
	}
	if tr.Size() != size {
		t.Fatalf("Size() = %d after compaction", tr.Size())
	}
}

func TestCompactEpochOrdering(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("t")
	a := tr.NewObject("a")
	b := tr.NewObject("b")

	pre := th.Write(a, nil)
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	post := th.Write(b, nil)

	if pre.Epoch != 0 || post.Epoch != 1 {
		t.Fatalf("epochs = %d, %d; want 0, 1", pre.Epoch, post.Epoch)
	}
	if got := pre.Order(post); got != vclock.Before {
		t.Fatalf("pre.Order(post) = %v, want before", got)
	}
	if got := post.Order(pre); got != vclock.After {
		t.Fatalf("post.Order(pre) = %v, want after", got)
	}
	if !pre.HappenedBefore(post) || pre.Concurrent(post) {
		t.Fatal("cross-epoch helpers disagree with Order")
	}
}

func TestCompactNeverInvertsTrueOrder(t *testing.T) {
	// Soundness: for any pair with a true happened-before relation in the
	// full recorded computation, the epoch-aware Order must agree with the
	// direction (it may add order to concurrent pairs, never flip one).
	tr := mustOpen(t, "")
	ths := []*Thread{tr.NewThread("a"), tr.NewThread("b"), tr.NewThread("c")}
	objs := []*Object{tr.NewObject("x"), tr.NewObject("y")}

	var stamps []Stamped
	record := func(s Stamped) { stamps = append(stamps, s) }

	record(ths[0].Write(objs[0], nil))
	record(ths[1].Write(objs[0], nil))
	record(ths[2].Write(objs[1], nil))
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	record(ths[0].Write(objs[1], nil))
	record(ths[1].Write(objs[1], nil))
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	record(ths[2].Write(objs[0], nil))

	full, _ := tr.Snapshot()
	oracle := hb.New(full)
	for i := range stamps {
		for j := range stamps {
			if i == j {
				continue
			}
			if oracle.HappenedBefore(i, j) && stamps[i].Order(stamps[j]) != vclock.Before {
				t.Fatalf("true order e%d → e%d inverted or lost: Order = %v",
					i, j, stamps[i].Order(stamps[j]))
			}
		}
	}
}

func TestCompactEpochSegmentsAreValidClocks(t *testing.T) {
	// Within each epoch, the recorded stamps must form a valid vector
	// clock for that epoch's sub-computation.
	tr := driftTracker(t)
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	th := tr.NewThread("late")
	o := tr.NewObject("late-obj")
	for i := 0; i < 10; i++ {
		th.Write(o, nil)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	full, stamps := tr.Snapshot()
	starts := tr.EpochStarts()
	for ei, start := range starts {
		end := full.Len()
		if ei+1 < len(starts) {
			end = starts[ei+1]
		}
		seg := event.NewTrace()
		segStamps := make([]vclock.Vector, 0, end-start)
		for i := start; i < end; i++ {
			e := full.At(i)
			seg.Append(e.Thread, e.Object, e.Op)
			segStamps = append(segStamps, stamps[i])
		}
		if err := clock.Validate(seg, segStamps, "epoch"); err != nil {
			t.Fatalf("epoch %d invalid: %v", ei, err)
		}
	}
}

func TestCompactMechanismContinues(t *testing.T) {
	// New edges after compaction still grow the component set via the
	// mechanism, and the cover invariant holds.
	tr := mustOpen(t, "", WithMechanism(core.NaiveThreads{}))
	th1 := tr.NewThread("a")
	o1 := tr.NewObject("x")
	th1.Write(o1, nil)
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	th2 := tr.NewThread("b")
	o2 := tr.NewObject("y")
	th2.Write(o2, nil) // brand-new edge in the new epoch
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 2 {
		t.Fatalf("Size = %d, want 2 (compacted cover + new naive component)", tr.Size())
	}
}

func TestEpochBookkeeping(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("t")
	o := tr.NewObject("o")
	th.Write(o, nil) // event 0, epoch 0
	if tr.Epoch() != 0 {
		t.Fatalf("Epoch = %d", tr.Epoch())
	}
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	th.Write(o, nil) // event 1, epoch 1
	if tr.Epoch() != 1 {
		t.Fatalf("Epoch = %d", tr.Epoch())
	}
	if got := tr.EpochStarts(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("EpochStarts = %v", got)
	}
	if tr.EpochOf(0) != 0 || tr.EpochOf(1) != 1 {
		t.Fatalf("EpochOf wrong: %d, %d", tr.EpochOf(0), tr.EpochOf(1))
	}
}

func TestCompactEmptyTracker(t *testing.T) {
	tr := mustOpen(t, "")
	epoch, size, err := tr.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || size != 0 {
		t.Fatalf("empty compaction: epoch %d size %d", epoch, size)
	}
}
