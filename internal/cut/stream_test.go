package cut_test

import (
	"math/rand"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/cut"
	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/trace"
)

// oracleRecoveryLine is the recovery line by definition: per thread, the
// events before its first one that is bad or in bad's happened-before
// up-set.
func oracleRecoveryLine(tr *event.Trace, bad int) cut.Cut {
	dirty := map[int]bool{bad: true}
	for _, j := range hb.New(tr).UpSet(bad) {
		dirty[j] = true
	}
	c := cut.Cut{PerThread: make([]int, tr.Threads())}
	frozen := make([]bool, tr.Threads())
	for i := 0; i < tr.Len(); i++ {
		t := tr.At(i).Thread
		frozen[t] = frozen[t] || dirty[i]
		if !frozen[t] {
			c.PerThread[t]++
		}
	}
	return c
}

// TestLineTrackerMatchesRecoveryLine streams every generator workload's
// stamps through a LineTracker armed at a random bad event and checks the
// final line equals both the oracle's recovery line and RecoveryLine, and
// is a consistent cut.
func TestLineTrackerMatchesRecoveryLine(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, w := range trace.Workloads() {
		tr, err := trace.Generate(w, trace.Config{Threads: 5, Objects: 5, Events: 120, ReadFraction: 0.2}, rng)
		if err != nil {
			t.Fatal(err)
		}
		stamps := clock.Run(tr, core.AnalyzeTrace(tr).NewClock())
		bad := rng.Intn(tr.Len())
		lt := cut.NewLineTracker()
		for i, v := range stamps {
			if i == bad {
				lt.Arm(bad, 0, v)
			}
			lt.Add(tr.At(i), 0, v)
		}
		want := oracleRecoveryLine(tr, bad)
		got := lt.Line()
		if got.String() != want.String() {
			t.Fatalf("%v bad=%d: streaming line %v, oracle %v", w, bad, got, want)
		}
		offline, err := cut.RecoveryLine(tr, stamps, bad)
		if err != nil {
			t.Fatal(err)
		}
		if offline.String() != want.String() {
			t.Fatalf("%v bad=%d: RecoveryLine %v, oracle %v", w, bad, offline, want)
		}
		if !cut.IsConsistent(tr, got) {
			t.Fatalf("%v bad=%d: line %v inconsistent", w, bad, got)
		}
	}
}

// TestLineTrackerEpochBarrier checks that every event in an epoch after the
// bad event's is contaminated regardless of its raw stamp.
func TestLineTrackerEpochBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	tr, err := trace.Generate(trace.Uniform, trace.Config{Threads: 3, Objects: 3, Events: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	stamps := clock.Run(tr, core.AnalyzeTrace(tr).NewClock())
	lt := cut.NewLineTracker()
	for i, v := range stamps {
		epoch := 0
		if i >= 15 {
			epoch = 1
		}
		if i == 14 {
			lt.Arm(i, 0, v)
		}
		lt.Add(tr.At(i), epoch, v)
	}
	// No thread's clean prefix may include any epoch-1 event: count events
	// per thread in epoch 0 and check the line never exceeds it.
	per := make([]int, tr.Threads())
	for i := 0; i < 15; i++ {
		per[tr.At(i).Thread]++
	}
	line := lt.Line()
	for t2, c := range line.PerThread {
		if c > per[t2] {
			t.Fatalf("thread %d line %d exceeds its epoch-0 prefix %d", t2, c, per[t2])
		}
	}
}
