// Recovery demonstrates both senses of recovery the library supports.
//
// First, durable-run recovery: a live tracker is opened over a spill
// directory with mixedclock.Open, its sealed history survives a simulated
// crash (the process abandons the tracker without Close), and a second Open
// rebuilds a live tracker from the directory — clocks, component cover and
// epoch included — that resumes committing exactly where the sealed history
// ends.
//
// Second, the failure-recovery use-case from the paper's introduction: once
// the run is recovered, one operation turns out to be faulty, and the mixed
// vector clock timestamps alone identify every causally contaminated
// operation and the maximal consistent state — the recovery line — to roll
// back to.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"mixedclock"
)

// runAndCrash is the first life of the run: open a durable tracker over dir,
// do some work, seal, and "crash" — return without ever calling Close, as a
// killed process would. Only what was sealed survives.
func runAndCrash(dir string) int {
	tracker, err := mixedclock.Open(dir)
	if err != nil {
		panic(err)
	}
	// Eight workers funnel through two shared hot partitions, and two also
	// maintain private partitions — the access shape where a mixed clock is
	// much smaller than either classical clock. Deterministic seed keeps the
	// narrative stable.
	rng := rand.New(rand.NewSource(7))
	var workers []*mixedclock.Thread
	for i := 0; i < 8; i++ {
		workers = append(workers, tracker.NewThread(fmt.Sprintf("T%d", i+1)))
	}
	objects := []*mixedclock.Object{
		tracker.NewObject("hot-O1"), tracker.NewObject("hot-O2"),
		tracker.NewObject("T1-private"), tracker.NewObject("T2-private"),
	}
	for i := 0; i < 28; i++ {
		t := rng.Intn(8)
		o := rng.Intn(2) // hot partitions
		if t < 2 && rng.Float64() < 0.5 {
			o = 2 + t // worker T1's or T2's private partition
		}
		workers[t].Write(objects[o], nil)
	}
	// Seal: everything so far becomes immutable, hash-stamped segments plus
	// a published catalog.json — the unit of crash durability.
	if err := tracker.Seal(); err != nil {
		panic(err)
	}
	sealed := tracker.Events()
	// A little more work that is NOT sealed; the crash loses exactly this.
	workers[0].Write(objects[0], nil)
	workers[1].Write(objects[1], nil)
	fmt.Printf("first run: %d events committed, %d sealed, then the process dies\n",
		tracker.Events(), sealed)
	return sealed
}

func main() {
	dir, err := os.MkdirTemp("", "mvc-recovery-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	sealed := runAndCrash(dir)

	// Second life: Open rebuilds a live tracker from the directory. Every
	// listed segment is verified (size, SHA-256, full decode), per-thread
	// and per-object clocks are replayed, and committing resumes at the
	// next trace index — in the same epoch, causally after everything the
	// sealed history recorded.
	tracker, err := mixedclock.Open(dir)
	if err != nil {
		panic(err)
	}
	defer tracker.Close()
	ri := tracker.Recovery()
	fmt.Printf("\nreopened %s:\n", dir)
	fmt.Printf("  recovered %d of the sealed %d events (epoch %d, clean close: %v)\n",
		ri.Events, sealed, ri.Epoch, ri.CleanClose)
	workers, objects := tracker.Threads(), tracker.Objects()
	fmt.Printf("  registry restored: %d workers, %d objects (first: %s, %s)\n",
		len(workers), len(objects), workers[0].Name(), objects[0].Name())

	// The recovered run keeps going as if the crash never happened.
	s := workers[2].Write(objects[1], nil)
	fmt.Printf("  resumed committing at index %d\n\n", s.Event.Index)

	// Now the paper's recovery story, on the recovered history: operation 9
	// wrote garbage. One consistent snapshot gives the trace and stamps.
	trace, stamps := tracker.Snapshot()
	const bad = 9
	fmt.Printf("fault detected at event %d %v\n", bad, trace.At(bad))

	// Every event that could have observed the bad write, from timestamp
	// comparisons alone (Theorem 2: bad → e ⇔ V(bad) < V(e)).
	contaminated, err := mixedclock.Contaminated(stamps, bad)
	if err != nil {
		panic(err)
	}
	fmt.Printf("causally contaminated events: %d of %d\n", len(contaminated), trace.Len())

	// The recovery line: the maximal consistent cut excluding the fault.
	line, err := mixedclock.RecoveryLine(trace, stamps, bad)
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovery line: %v\n", line)
	fmt.Printf("events surviving rollback: %d of %d\n", line.Size(), trace.Len())
	if !mixedclock.IsConsistentCut(trace, line) {
		panic("recovery line must be consistent")
	}
	fmt.Println("verified: the recovery line is a consistent global state")

	// Close brackets the run: the tail is sealed, the catalog is published
	// with a clean-shutdown marker, and a third Open would report
	// CleanClose instead of a crash.
}
