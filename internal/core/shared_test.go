package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/event"
)

func TestSharedCoverObserveCoversEveryEdge(t *testing.T) {
	s := NewSharedCover(NewCoverTracker(NewHybrid()))
	edges := []struct{ t, o int }{{0, 0}, {1, 0}, {0, 1}, {2, 2}, {1, 0}, {0, 0}}
	for _, e := range edges {
		thrIdx, objIdx, width := s.Observe(event.ThreadID(e.t), event.ObjectID(e.o))
		if thrIdx < 0 && objIdx < 0 {
			t.Fatalf("edge (%d,%d) observed but uncovered", e.t, e.o)
		}
		if width != s.Size() {
			t.Fatalf("width %d != size %d", width, s.Size())
		}
		if thrIdx >= width || objIdx >= width {
			t.Fatalf("component index out of range: thr=%d obj=%d width=%d", thrIdx, objIdx, width)
		}
	}
	// The cover invariant over the revealed graph.
	g := s.Graph()
	comps := NewComponentSet()
	for _, c := range s.Components() {
		comps.Add(c)
	}
	for _, e := range g.EdgeList() {
		if !comps.Covers(event.ThreadID(e.Thread), event.ObjectID(e.Object)) {
			t.Fatalf("edge %v not covered by %v", e, comps)
		}
	}
}

func TestSharedCoverIndicesAreStable(t *testing.T) {
	// Append-only component sets mean an index, once returned, never moves.
	s := NewSharedCover(NewCoverTracker(NaiveThreads{}))
	first, _, _ := s.Observe(0, 0)
	if first < 0 {
		t.Fatal("naive mechanism must cover via the thread")
	}
	for i := 1; i < 50; i++ {
		s.Observe(event.ThreadID(i), event.ObjectID(i%7))
	}
	again, _, _ := s.Observe(0, 0)
	if again != first {
		t.Fatalf("component index moved: %d → %d", first, again)
	}
}

func TestSharedCoverConcurrentReveal(t *testing.T) {
	// Many goroutines race to reveal overlapping edge sets; every Observe
	// must come back covered and the final state must equal a serial reveal
	// of the same edge set (same cover size for naive, which is
	// deterministic in the set of distinct threads revealed).
	s := NewSharedCover(NewCoverTracker(NaiveThreads{}))
	const nGoroutines, nThreads, nObjects, ops = 8, 10, 6, 400
	var wg sync.WaitGroup
	errs := make(chan error, nGoroutines)
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				tid := event.ThreadID((g + i) % nThreads)
				oid := event.ObjectID((g * i) % nObjects)
				thrIdx, objIdx, width := s.Observe(tid, oid)
				if thrIdx < 0 && objIdx < 0 {
					errs <- fmt.Errorf("edge (%d,%d) observed but uncovered", tid, oid)
					return
				}
				if width == 0 {
					errs <- fmt.Errorf("edge (%d,%d): zero width after observe", tid, oid)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := s.Size(); got != nThreads {
		t.Fatalf("naive cover size = %d, want %d (one per revealed thread)", got, nThreads)
	}
}

// plan is one Observe answer: the tick plan of an event.
type plan struct{ thr, obj, width int }

// referencePlan reveals (t, o) through a plain sequential CoverTracker and
// returns the tick plan its component set yields at that step.
func referencePlan(ct *CoverTracker, t event.ThreadID, o event.ObjectID) plan {
	ct.Reveal(t, o)
	p := plan{thr: -1, obj: -1, width: ct.Size()}
	if i, ok := ct.Components().IndexOf(ThreadComponent(t)); ok {
		p.thr = i
	}
	if i, ok := ct.Components().IndexOf(ObjectComponent(o)); ok {
		p.obj = i
	}
	return p
}

// sharedMechanisms returns fresh instances of every mechanism the shared
// cover is checked under; Random is seeded so two calls agree draw for draw.
func sharedMechanisms(seed int64) []Mechanism {
	return []Mechanism{
		NaiveThreads{},
		NaiveObjects{},
		Popularity{},
		NewHybrid(),
		Random{Rng: rand.New(rand.NewSource(seed))},
	}
}

// seededPair builds two independent, identical seeded cover trackers over
// the offline optimum of g: one to wrap in a SharedCover, one as reference.
func seededPair(t testing.TB, mechA, mechB Mechanism, g *bipartite.Graph) (*CoverTracker, *CoverTracker) {
	t.Helper()
	build := func(m Mechanism) *CoverTracker {
		a := Analyze(g.Clone())
		ct, err := NewSeededCoverTracker(m, a.Graph, a.Components)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	return build(mechA), build(mechB)
}

// checkPlans reveals edges through a SharedCover over sut and through the
// reference tracker ref, requiring identical tick plans at every step
// (each edge is observed twice: the reveal, then the steady state).
func checkPlans(t testing.TB, name string, sut, ref *CoverTracker, edges []bipartite.Edge) {
	t.Helper()
	s := NewSharedCover(sut)
	for i, e := range edges {
		tid, oid := event.ThreadID(e.Thread), event.ObjectID(e.Object)
		want := referencePlan(ref, tid, oid)
		for rep := 0; rep < 2; rep++ {
			thr, obj, width := s.Observe(tid, oid)
			if got := (plan{thr, obj, width}); got != want {
				t.Fatalf("%s: step %d edge %v observe #%d: plan %+v, want %+v", name, i, e, rep, got, want)
			}
		}
	}
}

// TestSharedCoverMatchesSequentialCover is the stamp-equivalence property
// of the shared cover: for every mechanism, on the paper's generator graphs
// revealed in random order, from an empty and from a seeded cover, and with
// endpoints first appearing out of ID order, every Observe returns exactly
// the tick plan a sequential CoverTracker yields at that step. Identical
// tick plans imply identical stamps.
func TestSharedCoverMatchesSequentialCover(t *testing.T) {
	outOfOrder := []bipartite.Edge{
		{Thread: 0, Object: 200}, {Thread: 5, Object: 3}, {Thread: 1, Object: 200},
		{Thread: 5, Object: 200}, {Thread: 70, Object: 1}, {Thread: 0, Object: 3},
		{Thread: 3, Object: 64}, {Thread: 3, Object: 63}, {Thread: 2, Object: 128},
		{Thread: 70, Object: 200}, {Thread: 9, Object: 0}, {Thread: 9, Object: 255},
	}
	for _, sc := range []bipartite.Scenario{bipartite.Uniform, bipartite.Nonuniform} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g, err := bipartite.Generate(bipartite.GenConfig{
				NThreads: 30, NObjects: 90, Density: 0.1, Scenario: sc,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			order := g.RevealOrder(rng)
			half := len(order) / 2
			prefix := bipartite.New(0, 0)
			for _, e := range order[:half] {
				prefix.AddEdge(e.Thread, e.Object)
			}
			mechsA, mechsB := sharedMechanisms(seed), sharedMechanisms(seed)
			for i := range mechsA {
				name := fmt.Sprintf("%v/seed=%d/%s", sc, seed, mechsA[i].Name())
				checkPlans(t, name+"/empty", NewCoverTracker(mechsA[i]), NewCoverTracker(mechsB[i]),
					append(append([]bipartite.Edge(nil), outOfOrder...), order...))
			}
			mechsA, mechsB = sharedMechanisms(seed), sharedMechanisms(seed)
			for i := range mechsA {
				name := fmt.Sprintf("%v/seed=%d/%s/seeded", sc, seed, mechsA[i].Name())
				sut, ref := seededPair(t, mechsA[i], mechsB[i], prefix)
				checkPlans(t, name, sut, ref, append(append([]bipartite.Edge(nil), order[half:]...), outOfOrder...))
			}
		}
	}
}

// completeReveal returns the complete 32×256 graph's edges (cold-reveal's
// shape) in a seeded shuffled order.
func completeReveal(seed int64) []bipartite.Edge {
	edges := make([]bipartite.Edge, 0, 32*256)
	for t := 0; t < 32; t++ {
		for o := 0; o < 256; o++ {
			edges = append(edges, bipartite.Edge{Thread: t, Object: o})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(edges), func(i, j int) {
		edges[i], edges[j] = edges[j], edges[i]
	})
	return edges
}

// TestSharedCoverGenerationBound pins the incremental cover's cost model:
// revealing the complete 32×256 graph under Hybrid publishes at most one
// generation per component plus one per growth of the endpoint range, not
// one per edge (8 192), and every generation carries the edges revealed
// before it, so a second pass would take no lock at all.
func TestSharedCoverGenerationBound(t *testing.T) {
	s := NewSharedCover(NewCoverTracker(NewHybrid()))
	gens := map[*coverGen]bool{s.gen.Load(): true}
	maxT, maxO, growths := -1, -1, 0
	edges := completeReveal(1)
	for _, e := range edges {
		if e.Thread > maxT || e.Object > maxO {
			growths++
			maxT, maxO = max(maxT, e.Thread), max(maxO, e.Object)
		}
		s.Observe(event.ThreadID(e.Thread), event.ObjectID(e.Object))
		gens[s.gen.Load()] = true
	}
	if bound := s.Size() + growths; len(gens) > bound {
		t.Fatalf("%d generations for %d edges, want <= width %d + range growths %d",
			len(gens), 32*256, s.Size(), growths)
	}
	t.Logf("%d generations: width %d, %d range growths", len(gens), s.Size(), growths)
	final := s.gen.Load()
	for _, e := range edges {
		if w, m := final.bit(event.ThreadID(e.Thread), event.ObjectID(e.Object)); w == nil || w.Load()&m == 0 {
			t.Fatalf("edge %v revealed but not marked in the final generation", e)
		}
	}
}

// TestSharedCoverShuffledRace races 8 goroutines revealing the same
// complete 32×256 graph in different shuffled orders. Every returned plan
// must cover its edge with indices inside its width that agree with the
// final (append-only) component set, and at the end every revealed edge
// must be marked in the published generation.
func TestSharedCoverShuffledRace(t *testing.T) {
	s := NewSharedCover(NewCoverTracker(NewHybrid()))
	const goroutines = 8
	type seen struct {
		e    bipartite.Edge
		plan plan
	}
	results := make([][]seen, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, e := range completeReveal(int64(g + 1)) {
				thr, obj, width := s.Observe(event.ThreadID(e.Thread), event.ObjectID(e.Object))
				results[g] = append(results[g], seen{e, plan{thr, obj, width}})
			}
		}(g)
	}
	wg.Wait()
	final := NewComponentSet()
	for _, c := range s.Components() {
		final.Add(c)
	}
	for _, rs := range results {
		for _, r := range rs {
			p := r.plan
			if p.thr < 0 && p.obj < 0 {
				t.Fatalf("edge %v: uncovered plan %+v", r.e, p)
			}
			if p.thr >= p.width || p.obj >= p.width {
				t.Fatalf("edge %v: index out of width in %+v", r.e, p)
			}
			if i, ok := final.IndexOf(ThreadComponent(event.ThreadID(r.e.Thread))); p.thr >= 0 && (!ok || i != p.thr) {
				t.Fatalf("edge %v: thread index %d, final component set says %d (%v)", r.e, p.thr, i, ok)
			}
			if i, ok := final.IndexOf(ObjectComponent(event.ObjectID(r.e.Object))); p.obj >= 0 && (!ok || i != p.obj) {
				t.Fatalf("edge %v: object index %d, final component set says %d (%v)", r.e, p.obj, i, ok)
			}
		}
	}
	g := s.Graph()
	if g.Edges() != 32*256 {
		t.Fatalf("revealed %d edges, want %d", g.Edges(), 32*256)
	}
	gen := s.gen.Load()
	for _, e := range g.EdgeList() {
		tid, oid := event.ThreadID(e.Thread), event.ObjectID(e.Object)
		if !final.Covers(tid, oid) {
			t.Fatalf("edge %v not covered by %v", e, final)
		}
		if w, m := gen.bit(tid, oid); w == nil || w.Load()&m == 0 {
			t.Fatalf("edge %v revealed but not marked in the current generation", e)
		}
	}
}

// FuzzSharedCover decodes the input into a mechanism, an optional seeded
// prefix and a reveal sequence, and requires the shared cover's tick plans
// to equal the sequential cover's at every step.
func FuzzSharedCover(f *testing.F) {
	f.Add([]byte{3, 0, 0, 200, 5, 3, 1, 200, 70, 1, 0, 3})
	f.Add([]byte{2, 1, 1, 1, 2, 2, 1, 2, 3, 64, 3, 63, 9, 255, 9, 0})
	f.Add([]byte{4, 0, 7, 7, 7, 7, 0, 128, 31, 255, 31, 0})
	f.Add([]byte{0, 1, 0, 0, 1, 1, 2, 2, 3, 3, 40, 100})
	f.Add([]byte{1, 0, 47, 255, 0, 0, 47, 0, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		pick, seeded := int(data[0])%5, data[1]%2 == 1
		var edges []bipartite.Edge
		for i := 2; i+1 < len(data); i += 2 {
			edges = append(edges, bipartite.Edge{Thread: int(data[i]) % 48, Object: int(data[i+1])})
		}
		mechA, mechB := sharedMechanisms(int64(len(data)))[pick], sharedMechanisms(int64(len(data)))[pick]
		if !seeded {
			checkPlans(t, mechA.Name(), NewCoverTracker(mechA), NewCoverTracker(mechB), edges)
			return
		}
		prefix := bipartite.New(0, 0)
		for _, e := range edges[:len(edges)/2] {
			prefix.AddEdge(e.Thread, e.Object)
		}
		sut, ref := seededPair(t, mechA, mechB, prefix)
		checkPlans(t, mechA.Name()+"/seeded", sut, ref, edges[len(edges)/2:])
	})
}
