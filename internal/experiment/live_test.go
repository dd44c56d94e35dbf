package experiment

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/track"
)

// smallOpt keeps the equivalence sweeps to one cheap point per axis.
func smallOpt() Options {
	return Options{
		Trials:     2,
		Seed:       11,
		Nodes:      12,
		Density:    0.1,
		Densities:  []float64{0.1},
		NodeCounts: []int{10, 20},
	}
}

// liveCoverSize replays one reveal order through a live tracker built on
// the given mechanism, one committed write per edge, and returns the final
// mixed-clock width.
func liveCoverSize(t *testing.T, order []bipartite.Edge, m core.Mechanism) int {
	tr, err := track.Open("", track.WithMechanism(m))
	if err != nil {
		t.Fatal(err)
	}
	maxT, maxO := -1, -1
	for _, e := range order {
		if e.Thread > maxT {
			maxT = e.Thread
		}
		if e.Object > maxO {
			maxO = e.Object
		}
	}
	threads := make([]*track.Thread, maxT+1)
	for i := range threads {
		threads[i] = tr.NewThread(fmt.Sprintf("t%d", i))
	}
	objects := make([]*track.Object, maxO+1)
	for i := range objects {
		objects[i] = tr.NewObject(fmt.Sprintf("o%d", i))
	}
	for _, e := range order {
		threads[e.Thread].Do(objects[e.Object], event.OpWrite, nil)
	}
	return tr.Size()
}

// liveSizes is the sizer TestLiveEquivalence runs the figures with: the
// same series and the same rng consumption order as onlineSizes (one Random
// draw per uncovered new edge, evaluated naive-active → random →
// popularity), but each size measured on a real tracker.
func liveSizes(t *testing.T) sizer {
	return func(order []bipartite.Edge, nThreads int, rng *rand.Rand) map[string]int {
		return map[string]int{
			seriesNaive:       nThreads,
			seriesNaiveActive: liveCoverSize(t, order, core.NaiveThreads{}),
			seriesRandom:      liveCoverSize(t, order, core.Random{Rng: rng}),
			seriesPopularity:  liveCoverSize(t, order, core.Popularity{}),
		}
	}
}

// requireEqualResults asserts two figure Results carry identical series —
// the live tracker pipeline must reproduce the offline simulation exactly,
// not approximately.
func requireEqualResults(t *testing.T, name string, offline, live *Result) {
	t.Helper()
	if !reflect.DeepEqual(offline.X, live.X) {
		t.Fatalf("%s: x-axis differs: offline %v live %v", name, offline.X, live.X)
	}
	if !reflect.DeepEqual(offline.Series, live.Series) {
		t.Fatalf("%s: series differ:\noffline %+v\nlive    %+v", name, offline.Series, live.Series)
	}
}

// TestLiveEquivalence holds the live tracker to the figures: every figure's
// online series measured on a real Tracker equals the core.SimulateCover
// numbers the figures report, point for point — the
// tracker's concurrent cover path realizes the paper's mechanisms exactly,
// and the shared rng discipline keeps the Random series deterministic
// across both.
func TestLiveEquivalence(t *testing.T) {
	opt := smallOpt()
	live := liveSizes(t)
	o4u, o4n, err := Fig4(opt)
	if err != nil {
		t.Fatal(err)
	}
	l4u, l4n, err := fig4(opt, live)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "fig4 uniform", o4u, l4u)
	requireEqualResults(t, "fig4 nonuniform", o4n, l4n)

	o5u, o5n, err := Fig5(opt)
	if err != nil {
		t.Fatal(err)
	}
	l5u, l5n, err := fig5(opt, live)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "fig5 uniform", o5u, l5u)
	requireEqualResults(t, "fig5 nonuniform", o5n, l5n)

	o6, err := Fig6(opt)
	if err != nil {
		t.Fatal(err)
	}
	l6, err := fig6(opt, live)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "fig6", o6, l6)

	o7, err := Fig7(opt)
	if err != nil {
		t.Fatal(err)
	}
	l7, err := fig7(opt, live)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "fig7", o7, l7)
}

// TestThroughputSweepShape runs the throughput sweep at minimum scale and
// checks its structure: every series present, one value per worker count,
// all positive.
func TestThroughputSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep under -short")
	}
	r, err := ThroughputSweep(Options{Trials: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("expected 4 series (2 styles × 2 ratios), got %d", len(r.Series))
	}
	if len(r.X) != len(sweepThreads) {
		t.Fatalf("x-axis has %d points, want %d", len(r.X), len(sweepThreads))
	}
	for _, s := range r.Series {
		if len(s.Values) != len(r.X) {
			t.Fatalf("series %s has %d values, want %d", s.Name, len(s.Values), len(r.X))
		}
		for i, v := range s.Values {
			if v <= 0 {
				t.Errorf("series %s point %d: non-positive throughput %v", s.Name, i, v)
			}
		}
	}
}
