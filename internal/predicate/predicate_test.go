package predicate

import (
	"errors"
	"math/rand"
	"testing"

	"mixedclock/internal/cut"
	"mixedclock/internal/event"
)

// independent returns a trace with two threads of two private events each —
// no synchronization, full 2×2 lattice.
func independent() *event.Trace {
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite)
	tr.Append(0, 0, event.OpWrite)
	tr.Append(1, 1, event.OpWrite)
	tr.Append(1, 1, event.OpWrite)
	return tr
}

func at(c0, c1 int) Predicate {
	return func(s *State) bool {
		return s.Executed(0) == c0 && s.Executed(1) == c1
	}
}

func TestPossiblyFindsReachableState(t *testing.T) {
	tr := independent()
	witness, found, err := Possibly(tr, at(1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("state (1,1) should be reachable")
	}
	if witness.PerThread[0] != 1 || witness.PerThread[1] != 1 {
		t.Fatalf("witness = %v", witness)
	}
	if !cut.IsConsistent(tr, witness) {
		t.Fatal("witness cut inconsistent")
	}
}

func TestPossiblyRespectsSynchronization(t *testing.T) {
	// T1's event on O1 precedes T2's event on O1: T2 cannot have executed
	// its event while T1 has executed nothing.
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite) // e0: T1 on O1
	tr.Append(1, 0, event.OpWrite) // e1: T2 on O1 (after e0)

	_, found, err := Possibly(tr, at(0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("state (0,1) violates the O1 ordering and must be unreachable")
	}
	// The synchronized state (1,1) is reachable.
	_, found, err = Possibly(tr, at(1, 1), 0)
	if err != nil || !found {
		t.Fatalf("state (1,1) should be reachable: %v", err)
	}
}

func TestDefinitelyLevelPredicate(t *testing.T) {
	// Every path passes through every total-count level.
	tr := independent()
	for level := 0; level <= 4; level++ {
		level := level
		got, err := Definitely(tr, func(s *State) bool { return s.Total() == level }, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Errorf("level %d should be definite", level)
		}
	}
}

func TestDefinitelyFalseForCornerState(t *testing.T) {
	// (1,1) is reachable but avoidable: a path may run T1 to completion
	// first.
	got, err := Definitely(independent(), at(1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("corner state should not be definite")
	}
}

func TestDefinitelyForcedBySynchronization(t *testing.T) {
	// Chain: T1 writes O1, T2 reads O1 then works. Every path passes the
	// state "T1 done, T2 not started" — because T2's first event needs
	// T1's event executed and states advance one event at a time.
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite) // e0: T1 on O1
	tr.Append(1, 0, event.OpRead)  // e1: T2 reads O1
	got, err := Definitely(tr, at(1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("state (1,0) lies on every path")
	}
}

func TestPossiblyDetectsMutualExclusionOverlap(t *testing.T) {
	// Two threads take "locks" as objects. In trace A they share a lock —
	// critical sections cannot overlap. In trace B they use different
	// locks — overlap is possible. The predicate: both threads are inside
	// their critical section (entered, not exited).
	inCS := func(s *State) bool {
		return s.Executed(0) == 1 && s.Executed(1) == 1
	}

	shared := event.NewTrace()
	shared.Append(0, 0, event.OpWrite) // T1 enter (lock O1)
	shared.Append(0, 0, event.OpWrite) // T1 exit
	shared.Append(1, 0, event.OpWrite) // T2 enter (same lock)
	shared.Append(1, 0, event.OpWrite) // T2 exit
	_, foundShared, err := Possibly(shared, inCS, 0)
	if err != nil {
		t.Fatal(err)
	}

	disjoint := event.NewTrace()
	disjoint.Append(0, 0, event.OpWrite) // T1 enter lock O1
	disjoint.Append(0, 0, event.OpWrite) // T1 exit
	disjoint.Append(1, 1, event.OpWrite) // T2 enter lock O2
	disjoint.Append(1, 1, event.OpWrite) // T2 exit
	_, foundDisjoint, err := Possibly(disjoint, inCS, 0)
	if err != nil {
		t.Fatal(err)
	}

	if foundShared {
		t.Error("shared lock: overlapping critical sections must be impossible")
	}
	if !foundDisjoint {
		t.Error("disjoint locks: overlap must be possible")
	}
}

func TestStateAccessors(t *testing.T) {
	tr := event.NewTrace()
	tr.Append(0, 1, event.OpWrite) // e0
	tr.Append(1, 1, event.OpRead)  // e1

	var captured *State
	_, found, err := Possibly(tr, func(s *State) bool {
		if s.Executed(0) == 1 && s.Executed(1) == 1 {
			captured = s
			return true
		}
		return false
	}, 0)
	if err != nil || !found {
		t.Fatalf("state not found: %v", err)
	}
	if e, ok := captured.LastEvent(0); !ok || e.Index != 0 {
		t.Errorf("LastEvent(0) = %v, %v", e, ok)
	}
	if e, ok := captured.LastOnObject(1); !ok || e.Index != 1 {
		t.Errorf("LastOnObject(1) = %v, %v", e, ok)
	}
	if _, ok := captured.LastOnObject(0); ok {
		t.Error("object O1 has no events")
	}
	if captured.Total() != 2 {
		t.Errorf("Total = %d", captured.Total())
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// A wide antichain has 2^k states; a tiny budget must error rather
	// than silently return "not found".
	tr := event.NewTrace()
	for i := 0; i < 10; i++ {
		tr.Append(event.ThreadID(i), event.ObjectID(i), event.OpWrite)
	}
	never := func(*State) bool { return false }
	if _, _, err := Possibly(tr, never, 16); !errors.Is(err, ErrBudget) {
		t.Fatalf("Possibly: want ErrBudget, got %v", err)
	}
	if _, err := Definitely(tr, never, 16); !errors.Is(err, ErrBudget) {
		t.Fatalf("Definitely: want ErrBudget, got %v", err)
	}
}

func TestPossiblyImpliesObservedOrReachable(t *testing.T) {
	// Cross-check on random traces: a predicate true at some prefix of the
	// OBSERVED interleaving must be Possibly-true (the observed run is one
	// lattice path).
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		tr := event.NewTrace()
		for i := 0; i < 14; i++ {
			tr.Append(event.ThreadID(rng.Intn(3)), event.ObjectID(rng.Intn(3)), event.OpWrite)
		}
		// Pick a random prefix of the observed run as the target state.
		k := rng.Intn(tr.Len() + 1)
		counts := make([]int, tr.Threads())
		for i := 0; i < k; i++ {
			counts[tr.At(i).Thread]++
		}
		target := func(s *State) bool {
			for t := 0; t < tr.Threads(); t++ {
				if s.Executed(event.ThreadID(t)) != counts[t] {
					return false
				}
			}
			return true
		}
		_, found, err := Possibly(tr, target, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("trial %d: observed prefix state %v not found", trial, counts)
		}
	}
}

func TestDefinitelyImpliesPossibly(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		tr := event.NewTrace()
		for i := 0; i < 12; i++ {
			tr.Append(event.ThreadID(rng.Intn(3)), event.ObjectID(rng.Intn(3)), event.OpWrite)
		}
		k := rng.Intn(13)
		pred := func(s *State) bool { return s.Total() == k }
		def, err := Definitely(tr, pred, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, pos, err := Possibly(tr, pred, 0)
		if err != nil {
			t.Fatal(err)
		}
		if def && !pos {
			t.Fatalf("trial %d: definitely but not possibly", trial)
		}
	}
}

// TestKeyDistinguishesLargeCounts pins the state-key encoding: executed
// counts that agree in their low 16 bits must still give distinct keys, or
// the lattice search would skip a new state as already seen.
func TestKeyDistinguishesLargeCounts(t *testing.T) {
	for _, p := range [][2][]int{
		{{65536}, {0}},
		{{65537, 2}, {1, 2}},
		{{1 << 20, 0}, {0, 1 << 20}},
		{{3, 1 << 40}, {3, 0}},
	} {
		if key(p[0]) == key(p[1]) {
			t.Errorf("key(%v) == key(%v)", p[0], p[1])
		}
	}
}
