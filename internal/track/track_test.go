package track

import (
	"sync"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
)

// mustOpen is Open for tests: dir "" is an in-memory tracker, and an error
// fails the test.
func mustOpen(tb testing.TB, dir string, opts ...Option) *Tracker {
	tb.Helper()
	tr, err := Open(dir, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestSingleThreadSequence(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("main")
	o := tr.NewObject("x")

	var x int
	s1 := th.Write(o, func() { x = 1 })
	s2 := th.Write(o, func() { x = 2 })
	s3 := th.Read(o, nil)

	if x != 2 {
		t.Fatalf("x = %d, want 2", x)
	}
	if !s1.HappenedBefore(s2) || !s2.HappenedBefore(s3) {
		t.Fatal("program order not captured")
	}
	if s1.Concurrent(s2) {
		t.Fatal("sequential events reported concurrent")
	}
	if tr.Events() != 3 {
		t.Fatalf("Events = %d, want 3", tr.Events())
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossThreadCausalityThroughObject(t *testing.T) {
	tr := mustOpen(t, "")
	producer := tr.NewThread("producer")
	consumer := tr.NewThread("consumer")
	q := tr.NewObject("queue")

	// Run the consumer strictly after the producer via channel handoff, so
	// the object order q: produce → consume is also the real-time order.
	type msg struct{}
	ready := make(chan msg)
	var produced, consumed Stamped
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		produced = producer.Write(q, nil)
		ready <- msg{}
	}()
	go func() {
		defer wg.Done()
		<-ready
		consumed = consumer.Write(q, nil)
	}()
	wg.Wait()

	if !produced.HappenedBefore(consumed) {
		t.Fatalf("produce %v should precede consume %v", produced.Vector(), consumed.Vector())
	}
}

func TestConcurrentOperationsAreConcurrent(t *testing.T) {
	tr := mustOpen(t, "")
	a := tr.NewThread("a")
	b := tr.NewThread("b")
	oa := tr.NewObject("xa")
	ob := tr.NewObject("xb")

	// Two threads on disjoint objects never communicate: all cross-thread
	// pairs must be concurrent regardless of scheduling.
	var wg sync.WaitGroup
	wg.Add(2)
	var sa, sb []Stamped
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			sa = append(sa, a.Write(oa, nil))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			sb = append(sb, b.Write(ob, nil))
		}
	}()
	wg.Wait()

	for _, x := range sa {
		for _, y := range sb {
			if !x.Concurrent(y) {
				t.Fatalf("%v and %v should be concurrent", x.Event, y.Event)
			}
		}
	}
}

func TestRecordedTraceIsValid(t *testing.T) {
	// Hammer a tracker from several goroutines, then check the recorded
	// stamps form a valid vector clock for the recorded trace.
	mechs := map[string]core.Mechanism{
		"hybrid":     core.NewHybrid(),
		"popularity": core.Popularity{},
		"naive":      core.NaiveThreads{},
	}
	for name, mech := range mechs {
		name, mech := name, mech
		t.Run(name, func(t *testing.T) {
			tr := mustOpen(t, "", WithMechanism(mech))
			const nThreads, nObjects, opsPer = 8, 6, 40
			objects := make([]*Object, nObjects)
			for i := range objects {
				objects[i] = tr.NewObject("obj")
			}
			var wg sync.WaitGroup
			for i := 0; i < nThreads; i++ {
				th := tr.NewThread("worker")
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					for j := 0; j < opsPer; j++ {
						th.Write(objects[(k+j*j)%nObjects], nil)
					}
				}(i)
			}
			wg.Wait()

			if tr.Events() != nThreads*opsPer {
				t.Fatalf("Events = %d, want %d", tr.Events(), nThreads*opsPer)
			}
			if err := tr.Err(); err != nil {
				t.Fatal(err)
			}
			if err := validate(tr, name); err != nil {
				t.Fatal(err)
			}
			// Only the naive mechanism bounds the size by the thread count;
			// popularity/hybrid may overshoot (the paper's Fig. 4 effect).
			// Every mechanism is bounded by threads + objects.
			if name == "naive" && tr.Size() > nThreads {
				t.Fatalf("naive clock size %d exceeds thread count %d", tr.Size(), nThreads)
			}
			if tr.Size() > nThreads+nObjects {
				t.Fatalf("clock size %d exceeds all vertices under %s", tr.Size(), name)
			}
		})
	}
}

func TestMixedTrackerBeatsNaiveOnSkewedWorkload(t *testing.T) {
	// Many threads funnel through three shared hot objects and touch
	// nothing else: the optimal cover is the three objects, so popularity
	// should land near 3 while naive pays one component per thread.
	run := func(mech core.Mechanism) int {
		tr := mustOpen(t, "", WithMechanism(mech))
		hots := []*Object{tr.NewObject("h0"), tr.NewObject("h1"), tr.NewObject("h2")}
		const n = 12
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			th := tr.NewThread("w")
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					th.Write(hots[(k+j)%len(hots)], nil)
				}
			}(i)
		}
		wg.Wait()
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
		return tr.Size()
	}
	naive := run(core.NaiveThreads{})
	pop := run(core.Popularity{})
	if naive != 12 {
		t.Fatalf("naive size = %d, want 12", naive)
	}
	// The optimum is 3 (the hot objects); popularity pays a few early
	// tie-breaks to threads before the objects become popular, and the
	// exact count varies with goroutine scheduling. It must still be well
	// below naive's 12.
	if pop > 9 {
		t.Fatalf("popularity size %d should be well below naive %d on funnel workload", pop, naive)
	}
}

func TestTrackerCrossUsePanics(t *testing.T) {
	t1 := mustOpen(t, "")
	t2 := mustOpen(t, "")
	th := t1.NewThread("a")
	o := t2.NewObject("x")
	defer func() {
		if recover() == nil {
			t.Fatal("cross-tracker Do did not panic")
		}
	}()
	th.Write(o, nil)
}

func TestNestedDo(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("main")
	outer := tr.NewObject("outer")
	inner := tr.NewObject("inner")

	var innerStamp Stamped
	outerStamp := th.Write(outer, func() {
		innerStamp = th.Write(inner, nil)
	})
	// The inner operation commits first and precedes the outer one in
	// program order.
	if !innerStamp.HappenedBefore(outerStamp) {
		t.Fatalf("inner %v should precede outer %v", innerStamp.Vector(), outerStamp.Vector())
	}
	if err := validate(tr, "nested"); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("worker-1")
	o := tr.NewObject("account")
	if th.Name() != "worker-1" || o.Name() != "account" {
		t.Error("names not kept")
	}
	if th.ID() != 0 || o.ID() != 0 {
		t.Error("dense IDs expected")
	}
	s := th.Write(o, nil)
	if s.Event.Thread != th.ID() || s.Event.Object != o.ID() {
		t.Error("stamped event mismatched")
	}
	comps := tr.Components()
	if len(comps) != 1 {
		t.Fatalf("components = %v", comps)
	}
	if s.Event.Op != event.OpWrite {
		t.Error("op not recorded")
	}
}

func TestStampsAndTraceAreCopies(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("t")
	o := tr.NewObject("o")
	th.Write(o, nil)

	full, stamps := tr.Snapshot()
	if len(stamps) != 1 || full.Len() != 1 {
		t.Fatal("missing stamp")
	}
	stamps[0] = stamps[0].Set(0, 99)
	if _, again := tr.Snapshot(); again[0].At(0) == 99 {
		t.Fatal("Snapshot leaked internal storage")
	}
}

// validate checks the tracker's recorded stamps against the
// happened-before oracle of its recorded trace (Theorem 2).
func validate(tr *Tracker, scheme string) error {
	full, stamps := tr.Snapshot()
	return clock.Validate(full, stamps, scheme)
}
