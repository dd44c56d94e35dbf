package detect_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/detect"
	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/trace"
	"mixedclock/internal/vclock"
)

// TestCensusAccumulatorMatchesTakeCensus streams every generator workload's
// stamps through the accumulator with an unbounded window and checks the
// result equals both TakeCensus and the happened-before oracle exactly —
// the census half of the streaming == oracle property.
func TestCensusAccumulatorMatchesTakeCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, w := range trace.Workloads() {
		tr, err := trace.Generate(w, trace.Config{Threads: 5, Objects: 6, Events: 150, ReadFraction: 0.3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		stamps := clock.Run(tr, core.AnalyzeTrace(tr).NewClock())
		var acc detect.CensusAccumulator
		w := hb.NewRecent(0)
		for i, v := range stamps {
			acc.Add(w, i, 0, v)
		}
		want := oracleCensus(hb.New(tr))
		if got := acc.Census(); got != want {
			t.Fatalf("%v: streaming census %+v, oracle %+v", w, got, want)
		}
		if got := detect.TakeCensus(tr); got != want {
			t.Fatalf("%v: TakeCensus %+v, oracle %+v", w, got, want)
		}
		if acc.Skipped() != 0 {
			t.Fatalf("%v: unbounded window skipped %d pairs", w, acc.Skipped())
		}
	}
}

// TestCensusAccumulatorWindowAccounting checks that with a bounded window
// every pair is either compared or counted as skipped, never lost.
func TestCensusAccumulatorWindowAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr, err := trace.Generate(trace.Uniform, trace.Config{Threads: 4, Objects: 4, Events: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	stamps := clock.Run(tr, core.AnalyzeTrace(tr).NewClock())
	var acc detect.CensusAccumulator
	w := hb.NewRecent(10)
	for i, v := range stamps {
		acc.Add(w, i, 0, v)
	}
	c := acc.Census()
	if all := len(stamps) * (len(stamps) - 1) / 2; c.Total+acc.Skipped() != all {
		t.Fatalf("compared %d + skipped %d != all pairs %d", c.Total, acc.Skipped(), all)
	}
	if c.Ordered+c.Concurrent != c.Total {
		t.Fatalf("census does not add up: %+v", c)
	}
}

// sortPairs orders pairs by first event index so the streaming emission
// order (by completing event) can be compared against the oracle's order.
// Each event has one object successor, so first events are unique.
func sortPairs(ps []detect.Pair) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].First.Index < ps[j].First.Index })
}

// TestPairScannerMatchesOffline is the exactness property of the streaming
// scanner: over every generator workload, the pairs it flags from the
// mixed-clock stamps must equal the oracle rule's pairs as a set, with no
// window at all — the per-object lazy-successor state machine is exact, not
// an approximation.
func TestPairScannerMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, w := range trace.Workloads() {
		tr, err := trace.Generate(w, trace.Config{Threads: 6, Objects: 5, Events: 200, ReadFraction: 0.4}, rng)
		if err != nil {
			t.Fatal(err)
		}
		stamps := clock.Run(tr, core.AnalyzeTrace(tr).NewClock())
		sc := detect.NewPairScanner()
		var got []detect.Pair
		for i, v := range stamps {
			if p, ok := sc.Add(tr.At(i), 0, v); ok {
				got = append(got, p)
			}
		}
		want := oraclePairs(tr)
		sortPairs(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: streaming pairs %v, oracle %v", w, got, want)
		}
		if sc.Count() != len(want) {
			t.Fatalf("%v: count %d, want %d", w, sc.Count(), len(want))
		}
	}
}

// TestPairScannerEpochReset checks that an epoch change drops the per-object
// records: the first event of the new epoch completes no pair, because the
// Compact barrier already orders it after everything before it.
func TestPairScannerEpochReset(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr, err := trace.Generate(trace.Uniform, trace.Config{Threads: 3, Objects: 2, Events: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	stamps := clock.Run(tr, core.AnalyzeTrace(tr).NewClock())
	sc := detect.NewPairScanner()
	for i, v := range stamps {
		epoch := 0
		if i >= 15 {
			epoch = 1
		}
		if p, ok := sc.Add(tr.At(i), epoch, v); ok && i == 15 {
			t.Fatalf("first event of a new epoch flagged a cross-epoch pair %v", p)
		}
	}
}

// steadyStamps returns a stream of n stamps at width 64 that stops widening
// after its first event, over a few threads and objects.
func steadyStamps(n int) ([]event.Event, []vclock.Vector) {
	rng := rand.New(rand.NewSource(43))
	evs := make([]event.Event, n)
	stamps := make([]vclock.Vector, n)
	cur := vclock.New(64)
	for i := range evs {
		cur[rng.Intn(len(cur))]++
		evs[i] = event.Event{Index: i, Thread: event.ThreadID(rng.Intn(4)), Object: event.ObjectID(rng.Intn(4)), Op: event.Op(rng.Intn(2))}
		stamps[i] = cur.Clone()
	}
	return evs, stamps
}

// TestStreamingSteadyStateAllocs: once the window is full and no new
// thread, object or clock width appears, the census with its window and the
// pair scanner allocate nothing per event.
func TestStreamingSteadyStateAllocs(t *testing.T) {
	evs, stamps := steadyStamps(4000)
	var acc detect.CensusAccumulator
	w := hb.NewRecent(16)
	sc := detect.NewPairScanner()
	i := 0
	feed := func() {
		acc.Add(w, i, 0, stamps[i])
		sc.Add(evs[i], 0, stamps[i])
		i++
	}
	for i < 100 {
		feed()
	}
	if allocs := testing.AllocsPerRun(1000, feed); allocs != 0 {
		t.Fatalf("steady-state census + pair scanner allocate %v per event, want 0", allocs)
	}
}
