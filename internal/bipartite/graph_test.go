package bipartite

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mixedclock/internal/event"
)

func TestSideString(t *testing.T) {
	if Threads.String() != "threads" || Objects.String() != "objects" {
		t.Fatal("Side.String wrong")
	}
	if got := Side(0).String(); got != "Side(0)" {
		t.Fatalf("Side(0) = %q", got)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(2, 2)
	if !g.AddEdge(0, 1) {
		t.Fatal("first AddEdge returned false")
	}
	if g.AddEdge(0, 1) {
		t.Fatal("duplicate edge reported as new")
	}
	if g.Edges() != 1 {
		t.Fatalf("Edges = %d, want 1", g.Edges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
	if g.ThreadDegree(0) != 1 || g.ObjectDegree(1) != 1 || g.ThreadDegree(1) != 0 {
		t.Fatal("degrees wrong")
	}
}

func TestAddEdgeGrowsSides(t *testing.T) {
	g := New(0, 0)
	g.AddEdge(3, 5)
	if g.NThreads() != 4 || g.NObjects() != 6 {
		t.Fatalf("sides = %d/%d, want 4/6", g.NThreads(), g.NObjects())
	}
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if g.HasEdge(0, 0) {
		t.Fatal("zero-value graph claims an edge")
	}
	g.AddEdge(0, 0)
	if g.Edges() != 1 {
		t.Fatalf("Edges = %d", g.Edges())
	}
}

func TestAddEdgeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative vertex did not panic")
		}
	}()
	New(1, 1).AddEdge(-1, 0)
}

func TestDegreeOutOfRange(t *testing.T) {
	g := New(1, 1)
	if g.ThreadDegree(-1) != 0 || g.ThreadDegree(9) != 0 {
		t.Fatal("out-of-range thread degree not 0")
	}
	if g.ObjectDegree(-1) != 0 || g.ObjectDegree(9) != 0 {
		t.Fatal("out-of-range object degree not 0")
	}
}

func TestDensity(t *testing.T) {
	g := New(2, 2)
	if g.Density() != 0 {
		t.Fatal("empty graph density not 0")
	}
	g.AddEdge(0, 0)
	g.AddEdge(1, 1)
	if got := g.Density(); got != 0.5 {
		t.Fatalf("Density = %f, want 0.5", got)
	}
	if New(0, 5).Density() != 0 {
		t.Fatal("degenerate graph density not 0")
	}
}

func TestPopularity(t *testing.T) {
	g := New(2, 3)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 1)
	// deg(T1)=2, deg(O2)=2, |E|=3.
	if got := g.Popularity(Threads, 0); got != 2.0/3.0 {
		t.Fatalf("pop(T1) = %f", got)
	}
	if got := g.Popularity(Objects, 1); got != 2.0/3.0 {
		t.Fatalf("pop(O2) = %f", got)
	}
	if got := g.Popularity(Objects, 2); got != 0 {
		t.Fatalf("pop(O3) = %f, want 0", got)
	}
	if got := New(1, 1).Popularity(Threads, 0); got != 0 {
		t.Fatalf("empty graph popularity = %f", got)
	}
}

func TestPopularityBadSidePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad side did not panic")
		}
	}()
	g := New(1, 1)
	g.AddEdge(0, 0)
	g.Popularity(Side(42), 0)
}

func TestEdgeListSorted(t *testing.T) {
	g := New(3, 3)
	g.AddEdge(2, 0)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 1)
	want := []Edge{{0, 1}, {0, 2}, {1, 1}, {2, 0}}
	got := g.EdgeList()
	if len(got) != len(want) {
		t.Fatalf("EdgeList len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EdgeList[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestEdgeListMatchesBruteForceSort pins EdgeList's per-row sort to the
// order a global (thread, object) sort gives, on paper generator graphs
// whose edges are inserted in a shuffled order.
func TestEdgeListMatchesBruteForceSort(t *testing.T) {
	for _, sc := range []Scenario{Uniform, Nonuniform} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			src, err := Generate(GenConfig{NThreads: 40, NObjects: 70, Density: 0.15, Scenario: sc}, rng)
			if err != nil {
				t.Fatal(err)
			}
			g := New(0, 0)
			var want []Edge
			for _, e := range src.RevealOrder(rng) {
				g.AddEdge(e.Thread, e.Object)
				want = append(want, e)
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].Thread != want[j].Thread {
					return want[i].Thread < want[j].Thread
				}
				return want[i].Object < want[j].Object
			})
			got := g.EdgeList()
			if len(got) != len(want) {
				t.Fatalf("%v seed %d: EdgeList len = %d, want %d", sc, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v seed %d: EdgeList[%d] = %v, want %v", sc, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := New(3, 2)
	g.AddEdge(1, 0)
	if got := g.IsolatedThreads(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("IsolatedThreads = %v", got)
	}
	if got := g.IsolatedObjects(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("IsolatedObjects = %v", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(2, 2)
	g.AddEdge(0, 0)
	c := g.Clone()
	c.AddEdge(1, 1)
	if g.Edges() != 1 || c.Edges() != 2 {
		t.Fatalf("clone not independent: g=%d c=%d", g.Edges(), c.Edges())
	}
}

func TestFromTrace(t *testing.T) {
	tr := event.NewTrace()
	tr.Append(0, 1, event.OpWrite)
	tr.Append(0, 1, event.OpRead) // repeated pair folds into one edge
	tr.Append(2, 0, event.OpWrite)
	g := FromTrace(tr)
	if g.NThreads() != 3 || g.NObjects() != 2 {
		t.Fatalf("sides = %d/%d", g.NThreads(), g.NObjects())
	}
	if g.Edges() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(2, 0) {
		t.Fatalf("edges wrong: %v", g.EdgeList())
	}
}

func TestGraphString(t *testing.T) {
	g := New(2, 2)
	g.AddEdge(0, 0)
	if s := g.String(); !strings.Contains(s, "threads=2") || !strings.Contains(s, "edges=1") {
		t.Fatalf("String = %q", s)
	}
}

func TestGenerateUniformDeterministic(t *testing.T) {
	cfg := GenConfig{NThreads: 20, NObjects: 20, Density: 0.3, Scenario: Uniform}
	g1, err := Generate(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := g1.EdgeList(), g2.EdgeList()
	if len(e1) != len(e2) {
		t.Fatalf("same seed, different edge counts: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("same seed, different edges at %d", i)
		}
	}
}

func TestGenerateUniformDensityCloseToTarget(t *testing.T) {
	cfg := GenConfig{NThreads: 100, NObjects: 100, Density: 0.2, Scenario: Uniform}
	g, err := Generate(cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Density(); d < 0.15 || d > 0.25 {
		t.Fatalf("realized density %f too far from 0.2", d)
	}
}

func TestGenerateNonuniformDensityCloseToTarget(t *testing.T) {
	cfg := GenConfig{NThreads: 100, NObjects: 100, Density: 0.1, Scenario: Nonuniform}
	g, err := Generate(cfg, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Density(); d < 0.06 || d > 0.14 {
		t.Fatalf("realized density %f too far from 0.1", d)
	}
}

func TestGenerateNonuniformSkewsDegrees(t *testing.T) {
	cfg := GenConfig{NThreads: 100, NObjects: 100, Density: 0.05, Scenario: Nonuniform, HotFraction: 0.1, HotBoost: 16}
	g, err := Generate(cfg, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	// Hot threads occupy indices [0, 10); they must have clearly higher
	// average degree than cold threads.
	hotSum, coldSum := 0, 0
	for tID := 0; tID < 10; tID++ {
		hotSum += g.ThreadDegree(tID)
	}
	for tID := 10; tID < 100; tID++ {
		coldSum += g.ThreadDegree(tID)
	}
	hotAvg := float64(hotSum) / 10
	coldAvg := float64(coldSum) / 90
	if hotAvg < 3*coldAvg {
		t.Fatalf("hot threads not hot enough: hot avg %.2f vs cold avg %.2f", hotAvg, coldAvg)
	}
}

func TestGenerateDensityExtremes(t *testing.T) {
	for _, scenario := range []Scenario{Uniform, Nonuniform} {
		g, err := Generate(GenConfig{NThreads: 10, NObjects: 10, Density: 0, Scenario: scenario}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if g.Edges() != 0 {
			t.Fatalf("%v density 0 produced %d edges", scenario, g.Edges())
		}
		g, err = Generate(GenConfig{NThreads: 10, NObjects: 10, Density: 1, Scenario: scenario}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if g.Edges() != 100 {
			t.Fatalf("%v density 1 produced %d edges, want 100", scenario, g.Edges())
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []GenConfig{
		{NThreads: -1, NObjects: 1, Density: 0.1},
		{NThreads: 1, NObjects: 1, Density: -0.1},
		{NThreads: 1, NObjects: 1, Density: 1.5},
		{NThreads: 1, NObjects: 1, Density: 0.1, Scenario: Scenario(9)},
		{NThreads: 1, NObjects: 1, Density: 0.1, HotFraction: 2},
		{NThreads: 1, NObjects: 1, Density: 0.1, HotBoost: 0.5},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, rng); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestNonuniformProbsSaturation(t *testing.T) {
	// Very high density forces hot pairs to saturate at p=1.
	cfg := GenConfig{NThreads: 100, NObjects: 100, Density: 0.9, Scenario: Nonuniform}.withDefaults()
	pCold, pHot := nonuniformProbs(cfg, 10, 10)
	if pHot != 1 {
		t.Fatalf("pHot = %f, want 1", pHot)
	}
	if pCold < 0 || pCold > 1 {
		t.Fatalf("pCold = %f outside [0,1]", pCold)
	}
	// Expected density should still be close to target.
	hotPairs := 100.0*100.0 - 90.0*90.0
	got := (hotPairs*pHot + 90*90*pCold) / 10000
	if got < 0.88 || got > 0.92 {
		t.Fatalf("expected density %f, want ≈0.9", got)
	}
}

func TestNonuniformProbsEmpty(t *testing.T) {
	cfg := GenConfig{NThreads: 0, NObjects: 0, Density: 0.5, Scenario: Nonuniform}.withDefaults()
	pCold, pHot := nonuniformProbs(cfg, 0, 0)
	if pCold != 0 || pHot != 0 {
		t.Fatalf("empty graph probs = %f/%f", pCold, pHot)
	}
}

func TestGenerateZipf(t *testing.T) {
	g, err := GenerateZipf(50, 50, 5, 1.5, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	if g.NThreads() != 50 || g.NObjects() != 50 {
		t.Fatalf("sides = %d/%d", g.NThreads(), g.NObjects())
	}
	for tID := 0; tID < 50; tID++ {
		if got := g.ThreadDegree(tID); got != 5 {
			t.Fatalf("thread %d degree = %d, want 5", tID, got)
		}
	}
	// Zipf skew means low object IDs should dominate.
	if g.ObjectDegree(0) <= g.ObjectDegree(49) {
		t.Errorf("no skew: deg(O1)=%d deg(O50)=%d", g.ObjectDegree(0), g.ObjectDegree(49))
	}
}

func TestGenerateZipfErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateZipf(-1, 1, 1, 2, rng); err == nil {
		t.Error("negative threads accepted")
	}
	if _, err := GenerateZipf(1, 1, -1, 2, rng); err == nil {
		t.Error("negative objectsPerThread accepted")
	}
	if _, err := GenerateZipf(1, 1, 1, 1.0, rng); err == nil {
		t.Error("skew 1.0 accepted")
	}
	g, err := GenerateZipf(3, 0, 2, 2, rng)
	if err != nil || g.Edges() != 0 {
		t.Errorf("zero objects should yield empty graph, got %v, %v", g, err)
	}
}

func TestGenerateZipfCapsObjectsPerThread(t *testing.T) {
	g, err := GenerateZipf(2, 3, 10, 2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for tID := 0; tID < 2; tID++ {
		if got := g.ThreadDegree(tID); got != 3 {
			t.Fatalf("thread %d degree = %d, want capped 3", tID, got)
		}
	}
}

func TestRevealOrderIsPermutation(t *testing.T) {
	g, err := Generate(GenConfig{NThreads: 10, NObjects: 10, Density: 0.4}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	order := g.RevealOrder(rand.New(rand.NewSource(6)))
	if len(order) != g.Edges() {
		t.Fatalf("reveal order has %d edges, want %d", len(order), g.Edges())
	}
	seen := make(map[Edge]int)
	for _, e := range order {
		seen[e]++
	}
	for _, e := range g.EdgeList() {
		if seen[e] != 1 {
			t.Fatalf("edge %v appears %d times", e, seen[e])
		}
	}
}

func TestRevealOrderDeterministic(t *testing.T) {
	g, err := Generate(GenConfig{NThreads: 8, NObjects: 8, Density: 0.5}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	o1 := g.RevealOrder(rand.New(rand.NewSource(10)))
	o2 := g.RevealOrder(rand.New(rand.NewSource(10)))
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("same seed, different order at %d", i)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(1, 1)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, []int{0}, []int{1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"graph threadobject",
		"t0 [label=\"T1\" style=filled",
		"o1 [label=\"O2\" style=filled",
		"t0 -- o0;",
		"t1 -- o1;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
