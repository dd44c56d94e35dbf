package track

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"mixedclock/internal/detect"
	"mixedclock/internal/event"
	"mixedclock/internal/predicate"
	"mixedclock/internal/trace"
	"mixedclock/internal/vclock"
)

// oddPred is the monitor-equivalence predicate: threads 0 and 1 are both
// mid-"transaction" (odd local event count). It exercises the Executed
// accessor and is satisfiable-but-not-trivial on the generator workloads.
func oddPred(s *predicate.State) bool {
	return s.Executed(0)%2 == 1 && s.Executed(1)%2 == 1
}

// sortedPairs normalizes a pair set for set-equality comparison; the
// streaming scanner emits at the second event, the offline scan at the
// first, so only the sets match, not the orders.
func sortedPairs(ps []detect.Pair) []detect.Pair {
	out := append([]detect.Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].First.Index != out[j].First.Index {
			return out[i].First.Index < out[j].First.Index
		}
		return out[i].Second.Index < out[j].Second.Index
	})
	return out
}

// TestMonitorMatchesOffline is the online-detection equivalence property:
// for every generator workload, on both backends, a Monitor with an
// unbounded window fed through real seals must agree exactly with the
// offline analyses over the final snapshot — census, schedule-sensitive
// pair set, predicate-watch verdict and witness, and happened-before
// answers.
func TestMonitorMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, wl := range trace.Workloads() {
		src, err := trace.Generate(wl, trace.Config{Threads: 6, Objects: 6, Events: 240}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []vclock.Backend{vclock.BackendFlat, vclock.BackendTree} {
			t.Run(fmt.Sprintf("%v/%v", wl, backend), func(t *testing.T) {
				tr := mustOpen(t, t.TempDir(),
					WithBackend(backend),
					WithStore(Store{Spill: SpillPolicy{SealEvery: 75}}),
				)
				m := tr.NewMonitor(MonitorPolicy{})
				m.WatchPossibly("both-odd", oddPred)
				defer m.Close()

				replayTrace(t, tr, src, -1)
				if err := m.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := m.Err(); err != nil {
					t.Fatal(err)
				}

				full, stamps := tr.Snapshot()
				stats := m.Stats()
				if stats.Consumed != full.Len() {
					t.Fatalf("consumed %d of %d events", stats.Consumed, full.Len())
				}
				if want := detect.TakeCensus(full); stats.Census != want || stats.CensusSkipped != 0 {
					t.Fatalf("census %+v (skipped %d), want %+v", stats.Census, stats.CensusSkipped, want)
				}
				if stats.CoverLowerBound > stats.ClockWidth {
					t.Fatalf("König lower bound %d exceeds live clock width %d", stats.CoverLowerBound, stats.ClockWidth)
				}

				var online []detect.Pair
				var possibly []Detection
				for _, d := range m.Detections() {
					switch d.Kind {
					case DetectPair:
						online = append(online, detect.Pair{First: d.Other, Second: d.Event})
					case DetectPossibly:
						possibly = append(possibly, d)
					}
				}
				if want := ScheduleSensitivePairsOffline(full); !reflect.DeepEqual(sortedPairs(online), want) {
					t.Fatalf("pair sets differ: online %d, offline %d", len(online), len(want))
				}

				witness, found, err := predicate.Possibly(full, oddPred, 0)
				if err != nil {
					t.Fatal(err)
				}
				if found != (len(possibly) == 1) {
					t.Fatalf("possibly: online fired=%v, offline found=%v", len(possibly) == 1, found)
				}
				if found && possibly[0].Witness.String() != witness.String() {
					t.Fatalf("witness %v, want %v", possibly[0].Witness, witness)
				}

				for trial := 0; trial < 200; trial++ {
					i, j := rng.Intn(full.Len()), rng.Intn(full.Len())
					got, ok := m.HappenedBefore(i, j)
					if !ok {
						t.Fatalf("unbounded window refused query (%d,%d)", i, j)
					}
					if want := stamps[i].Less(stamps[j]); got != want {
						t.Fatalf("hb(%d,%d)=%v, want %v", i, j, got, want)
					}
				}
			})
		}
	}
}

// ScheduleSensitivePairsOffline is the sorted offline pair set; a seam so
// the equivalence test reads symmetrically.
func ScheduleSensitivePairsOffline(tr *event.Trace) []detect.Pair {
	return sortedPairs(detect.ScheduleSensitivePairs(tr))
}

// TestMonitorWatchOrder checks order-watch semantics on a hand-built
// history: a write racing the guarded write fires with exact provenance,
// a causally ordered one does not, and the first detection arms a
// consistent recovery line.
func TestMonitorWatchOrder(t *testing.T) {
	tr := mustOpen(t, "")
	m := tr.NewMonitor(MonitorPolicy{})
	guard := tr.NewObject("guard")
	data := tr.NewObject("data")
	m.WatchOrder("data-after-guard",
		func(e event.Event) bool { return e.Object == 0 && e.Op == event.OpWrite },
		func(e event.Event) bool { return e.Object == 1 && e.Op == event.OpWrite },
	)
	a := tr.NewThread("a")
	b := tr.NewThread("b")

	a.Write(guard, nil)
	b.Write(data, nil) // concurrent with a's guard write: violation
	b.Read(guard, nil) // picks up a's write: causal edge a -> b
	b.Write(data, nil) // ordered after the guard write: clean
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	ds := m.Detections()
	var orders []Detection
	for _, d := range ds {
		if d.Kind == DetectOrder {
			orders = append(orders, d)
		}
	}
	if len(orders) != 1 {
		t.Fatalf("got %d order detections, want 1: %v", len(orders), ds)
	}
	d := orders[0]
	if d.Index != 1 || d.Other.Index != 0 || d.Epoch != 0 {
		t.Fatalf("provenance: %+v", d)
	}
	line, ok := m.RecoveryLine()
	if !ok {
		t.Fatal("recovery line not armed after order detection")
	}
	full, _ := tr.Snapshot()
	if got := line.String(); got == "" {
		t.Fatalf("empty recovery line for %d-event history", full.Len())
	}
}

// TestMonitorOverlapsCommits races a live monitor against concurrent
// committers with auto-sealing armed: sealed-segment evaluation must not
// stop the world (commits keep landing while the monitor consumes), and
// after a final Seal+Sync the monitor has evaluated every committed record
// with in-range provenance. Run under -race and -count in CI.
func TestMonitorOverlapsCommits(t *testing.T) {
	tr := mustOpen(t, t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: 64}}))
	const nWorkers, nObjects, opsPer = 6, 4, 300
	objects := make([]*Object, nObjects)
	for i := range objects {
		objects[i] = tr.NewObject(fmt.Sprintf("o%d", i))
	}
	var cbMu sync.Mutex
	var viaCallback int
	m := tr.NewMonitor(MonitorPolicy{
		Window: 128,
		OnDetection: func(d Detection) {
			cbMu.Lock()
			viaCallback++
			cbMu.Unlock()
		},
	})
	defer m.Close()

	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		th := tr.NewThread(fmt.Sprintf("w%d", w))
		wg.Add(1)
		go func(th *Thread, w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if (w+i)%3 == 0 {
					th.Read(objects[(w+i)%nObjects], nil)
				} else {
					th.Write(objects[(w+i)%nObjects], nil)
				}
			}
		}(th, w)
	}
	wg.Wait()
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	total := tr.Events()
	if total != nWorkers*opsPer {
		t.Fatalf("committed %d events, want %d", total, nWorkers*opsPer)
	}
	stats := m.Stats()
	if stats.Consumed != total {
		t.Fatalf("monitor consumed %d of %d", stats.Consumed, total)
	}
	ds := m.Detections()
	for _, d := range ds {
		if d.Index < 0 || d.Index >= total {
			t.Fatalf("detection index %d out of range [0,%d): %v", d.Index, total, d)
		}
	}
	// The goroutine may still be mid-delivery for a seal-triggered batch
	// when Sync returns; Close joins it, after which every detection has
	// gone through the callback.
	m.Close()
	cbMu.Lock()
	defer cbMu.Unlock()
	if viaCallback != len(ds) {
		t.Fatalf("callback saw %d detections, Detections() has %d", viaCallback, len(ds))
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}
