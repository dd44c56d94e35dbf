package baseline

import (
	"math/rand"
	"strings"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/vclock"
)

var (
	_ clock.Timestamper = (*ThreadClock)(nil)
	_ clock.Timestamper = (*ObjectClock)(nil)
	_ clock.Timestamper = (*ChainClock)(nil)
)

func randomTrace(rng *rand.Rand, threads, objects, events int) *event.Trace {
	tr := event.NewTrace()
	for i := 0; i < events; i++ {
		tr.Append(event.ThreadID(rng.Intn(threads)), event.ObjectID(rng.Intn(objects)), event.OpWrite)
	}
	return tr
}

func TestThreadClockHandComputed(t *testing.T) {
	// Two threads sharing one object: the object order transfers knowledge.
	c := NewThreadClock(2, 1)
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite) // e0: T1 on O1 → [1 0]
	tr.Append(1, 0, event.OpWrite) // e1: T2 on O1 → [1 1]
	tr.Append(0, 0, event.OpWrite) // e2: T1 on O1 → [2 1]
	stamps := clock.Run(tr, c)
	want := []vclock.Vector{{1, 0}, {1, 1}, {2, 1}}
	for i := range want {
		if !stamps[i].Equal(want[i]) {
			t.Errorf("event %d: %v, want %v", i, stamps[i], want[i])
		}
	}
}

func TestObjectClockHandComputed(t *testing.T) {
	// One thread over two objects: program order transfers knowledge.
	c := NewObjectClock(1, 2)
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite) // e0 → [1 0]
	tr.Append(0, 1, event.OpWrite) // e1 → [1 1]
	tr.Append(0, 0, event.OpWrite) // e2 → [2 1]
	stamps := clock.Run(tr, c)
	want := []vclock.Vector{{1, 0}, {1, 1}, {2, 1}}
	for i := range want {
		if !stamps[i].Equal(want[i]) {
			t.Errorf("event %d: %v, want %v", i, stamps[i], want[i])
		}
	}
}

func TestClassicClocksValidityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		nT, nO := 2+rng.Intn(6), 2+rng.Intn(6)
		tr := randomTrace(rng, nT, nO, 15+rng.Intn(50))
		if _, err := clock.RunAndValidate(tr, NewThreadClock(nT, nO)); err != nil {
			t.Fatalf("trial %d thread clock: %v", trial, err)
		}
		if _, err := clock.RunAndValidate(tr, NewObjectClock(nT, nO)); err != nil {
			t.Fatalf("trial %d object clock: %v", trial, err)
		}
	}
}

func TestClockSizes(t *testing.T) {
	tc := NewThreadClock(7, 3)
	if tc.Components() != 7 {
		t.Errorf("thread clock components = %d, want 7", tc.Components())
	}
	oc := NewObjectClock(7, 3)
	if oc.Components() != 3 {
		t.Errorf("object clock components = %d, want 3", oc.Components())
	}
	if tc.Name() != "thread-based" || oc.Name() != "object-based" {
		t.Error("names wrong")
	}
}

func TestStampsAreCopies(t *testing.T) {
	tc := NewThreadClock(2, 2)
	v := tc.Timestamp(event.Event{Thread: 0, Object: 0})
	v[0] = 100
	v2 := tc.Timestamp(event.Event{Thread: 0, Object: 0})
	if v2[0] != 2 {
		t.Fatalf("thread clock stamp aliased: %v", v2)
	}

	oc := NewObjectClock(2, 2)
	w := oc.Timestamp(event.Event{Thread: 0, Object: 0})
	w[0] = 100
	w2 := oc.Timestamp(event.Event{Thread: 0, Object: 0})
	if w2[0] != 2 {
		t.Fatalf("object clock stamp aliased: %v", w2)
	}
}

func TestChainClockValidityRandom(t *testing.T) {
	// The chain clock must be a valid vector clock on arbitrary traces —
	// the dominance rule guarantees each chain stays totally ordered.
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(6), 2+rng.Intn(6), 15+rng.Intn(60))
		if _, err := clock.RunAndValidate(tr, NewChainClock()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestChainClockNeverBelowWidth(t *testing.T) {
	// Any chain decomposition needs at least width-many chains (Dilworth).
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(5), 2+rng.Intn(5), 10+rng.Intn(40))
		cc := NewChainClock()
		clock.Run(tr, cc)
		width := hb.New(tr).Width()
		if cc.Components() < width {
			t.Fatalf("trial %d: %d chains below width %d — impossible decomposition",
				trial, cc.Components(), width)
		}
	}
}

func TestChainClockBoundedByThreadsOnWorkloads(t *testing.T) {
	// On these generated workloads the greedy chain clock should not need
	// more chains than threads (deterministic seeds keep this stable; the
	// greedy scan is a first-fit chain partition, which has no general
	// bound in the poset's width).
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 20; trial++ {
		nT := 2 + rng.Intn(8)
		tr := randomTrace(rng, nT, 2+rng.Intn(8), 100)
		cc := NewChainClock()
		clock.Run(tr, cc)
		if cc.Components() > nT {
			t.Fatalf("trial %d: %d chains for %d threads", trial, cc.Components(), nT)
		}
	}
}

func TestChainClockSharesChainsAcrossThreads(t *testing.T) {
	// A strictly sequential pipeline through one object lets every thread
	// extend the same chain: 1 chain for n threads.
	tr := event.NewTrace()
	for i := 0; i < 8; i++ {
		tr.Append(event.ThreadID(i), 0, event.OpWrite)
	}
	cc := NewChainClock()
	clock.Run(tr, cc)
	if cc.Components() != 1 {
		t.Fatalf("sequential pipeline used %d chains, want 1", cc.Components())
	}
}

func TestChainClockIndependentThreadsGetOwnChains(t *testing.T) {
	tr := event.NewTrace()
	for i := 0; i < 5; i++ {
		tr.Append(event.ThreadID(i), event.ObjectID(i), event.OpWrite)
	}
	cc := NewChainClock()
	clock.Run(tr, cc)
	if cc.Components() != 5 {
		t.Fatalf("independent threads used %d chains, want 5", cc.Components())
	}
}

func TestChainClockString(t *testing.T) {
	cc := NewChainClock()
	cc.Timestamp(event.Event{Thread: 0, Object: 0})
	if s := cc.String(); !strings.Contains(s, "chains=1") {
		t.Errorf("String = %q", s)
	}
	if cc.Name() != "chain" {
		t.Errorf("Name = %q", cc.Name())
	}
}
