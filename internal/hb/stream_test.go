package hb_test

import (
	"math/rand"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/hb"
	"mixedclock/internal/trace"
	"mixedclock/internal/vclock"
)

// TestRecentMatchesOracle streams every generator workload's stamps into a
// windowed Recent index and checks each answerable pair against the bitset
// Oracle: within the window the streaming index must agree exactly with the
// offline ground truth, and outside it must refuse (ok=false), never guess.
func TestRecentMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, w := range trace.Workloads() {
		for _, window := range []int{0, 1, 3, 16} {
			tr, err := trace.Generate(w, trace.Config{Threads: 5, Objects: 6, Events: 120, ReadFraction: 0.3}, rng)
			if err != nil {
				t.Fatal(err)
			}
			stamps := clock.Run(tr, core.AnalyzeTrace(tr).NewClock())
			oracle := hb.New(tr)
			r := hb.NewRecent(window)
			for i, v := range stamps {
				r.Add(i, 0, v)
			}
			if window > 0 && r.Len() != window {
				t.Fatalf("%v: retained %d, want %d", w, r.Len(), window)
			}
			for i := 0; i < tr.Len(); i++ {
				for j := 0; j < tr.Len(); j++ {
					gotHB, ok := r.HappenedBefore(i, j)
					inWindow := i >= r.Lo() && j >= r.Lo()
					if ok != inWindow {
						t.Fatalf("%v window=%d (%d,%d): ok=%v, in-window=%v", w, window, i, j, ok, inWindow)
					}
					if !ok {
						continue
					}
					if want := oracle.HappenedBefore(i, j); gotHB != want {
						t.Fatalf("%v window=%d: HappenedBefore(%d,%d)=%v, oracle %v", w, window, i, j, gotHB, want)
					}
					gotC, _ := r.Concurrent(i, j)
					if want := oracle.Concurrent(i, j); gotC != want {
						t.Fatalf("%v window=%d: Concurrent(%d,%d)=%v, oracle %v", w, window, i, j, gotC, want)
					}
				}
			}
		}
	}
}

// TestRecentEpochBarrier checks that events in different epochs are always
// reported ordered by epoch, regardless of their raw stamps.
func TestRecentEpochBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr, err := trace.Generate(trace.Uniform, trace.Config{Threads: 3, Objects: 3, Events: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	stamps := clock.Run(tr, core.AnalyzeTrace(tr).NewClock())
	r := hb.NewRecent(0)
	for i, v := range stamps {
		epoch := 0
		if i >= 10 {
			epoch = 1 // pretend a Compact barrier ran at index 10
		}
		r.Add(i, epoch, v)
	}
	for i := 0; i < 10; i++ {
		for j := 10; j < 20; j++ {
			if got, ok := r.HappenedBefore(i, j); !ok || !got {
				t.Fatalf("cross-epoch (%d,%d) must be ordered (got %v ok=%v)", i, j, got, ok)
			}
			if got, ok := r.HappenedBefore(j, i); !ok || got {
				t.Fatalf("cross-epoch (%d,%d) reversed must be unordered", j, i)
			}
			if conc, ok := r.Concurrent(i, j); !ok || conc {
				t.Fatalf("cross-epoch (%d,%d) must not be concurrent", i, j)
			}
		}
	}
}

// TestRecentAnchorAndReset checks that the window is anchored at the first
// index it is fed, that Reset empties it so the next Add re-anchors (a gap
// in the stream), and that rows read back exactly across a clock widening
// and the ring's wrap-around.
func TestRecentAnchorAndReset(t *testing.T) {
	r := hb.NewRecent(3)
	stamps := []vclock.Vector{{1}, {1, 1}, {2, 1}, {2, 1, 1}, {3, 1, 1}}
	for k, v := range stamps {
		r.Add(40+k, 0, v)
	}
	if r.Lo() != 42 || r.Hi() != 45 || r.Len() != 3 {
		t.Fatalf("window [%d,%d) len %d, want [42,45) len 3", r.Lo(), r.Hi(), r.Len())
	}
	for k := 0; k < r.Len(); k++ {
		if _, v := r.Row(k); !v.Equal(stamps[2+k]) {
			t.Fatalf("row %d = %v, want %v", k, v, stamps[2+k])
		}
	}
	if hb, ok := r.HappenedBefore(42, 44); !ok || !hb {
		t.Fatalf("HappenedBefore(42,44) = %v ok=%v", hb, ok)
	}
	if _, ok := r.HappenedBefore(41, 44); ok {
		t.Fatal("evicted event 41 answered")
	}
	r.Reset()
	r.Add(90, 1, vclock.Vector{1})
	if r.Lo() != 90 || r.Hi() != 91 {
		t.Fatalf("after Reset: window [%d,%d), want [90,91)", r.Lo(), r.Hi())
	}
	if _, ok := r.HappenedBefore(44, 90); ok {
		t.Fatal("event before the reset answered")
	}
}

// TestRecentAddAllocs: once the ring is full and the clock has stopped
// widening, Add copies into a reused row and allocates nothing.
func TestRecentAddAllocs(t *testing.T) {
	r := hb.NewRecent(16)
	v := vclock.New(153)
	i := 0
	for ; i < 32; i++ {
		v[i%len(v)]++
		r.Add(i, 0, v)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		v[i%len(v)]++
		r.Add(i, 0, v)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add allocates %v per call, want 0", allocs)
	}
}
