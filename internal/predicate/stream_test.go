package predicate_test

import (
	"errors"
	"math/rand"
	"testing"

	"mixedclock/internal/cut"
	"mixedclock/internal/event"
	"mixedclock/internal/predicate"
	"mixedclock/internal/trace"
)

// streamerPreds is a small family of predicates exercising every State
// accessor, used for online/offline comparison.
func streamerPreds() map[string]predicate.Predicate {
	return map[string]predicate.Predicate{
		"two-threads-odd": func(s *predicate.State) bool {
			return s.Executed(0)%2 == 1 && s.Executed(1)%2 == 1
		},
		"write-leads-object0": func(s *predicate.State) bool {
			e, ok := s.LastOnObject(0)
			return ok && e.Op == event.OpWrite && e.Thread == 0
		},
		"thread2-ahead": func(s *predicate.State) bool {
			return s.Executed(2) > s.Executed(0)+s.Executed(1) && s.Total() > 5
		},
	}
}

// TestStreamerMatchesPossibly is the predicate half of the online/offline
// equivalence property: with an unbounded window the Streamer's Possibly
// must agree with the offline Possibly on the materialized trace — same
// found flag, same error, and when found an identical witness cut (both
// run the same BFS in the same order).
func TestStreamerMatchesPossibly(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, w := range trace.Workloads() {
		tr, err := trace.Generate(w, trace.Config{Threads: 4, Objects: 4, Events: 48, ReadFraction: 0.3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for name, pred := range streamerPreds() {
			s := predicate.NewStreamer(0)
			for i := 0; i < tr.Len(); i++ {
				s.Add(tr.At(i))
			}
			gotCut, gotFound, gotErr := s.Possibly(pred, 1<<16)
			wantCut, wantFound, wantErr := predicate.Possibly(tr, pred, 1<<16)
			if gotFound != wantFound || !errors.Is(gotErr, wantErr) && (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%v/%s: online (found=%v err=%v), offline (found=%v err=%v)",
					w, name, gotFound, gotErr, wantFound, wantErr)
			}
			if gotFound && gotCut.String() != wantCut.String() {
				t.Fatalf("%v/%s: online witness %v, offline %v", w, name, gotCut, wantCut)
			}
		}
	}
}

// TestStreamerWindowedSoundness checks the windowing guarantee: every
// witness a bounded-window Streamer reports is a genuinely consistent cut
// of the full trace satisfying the executed-count predicate.
func TestStreamerWindowedSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pred := func(s *predicate.State) bool {
		return s.Executed(0)%2 == 1 && s.Executed(1)%2 == 1
	}
	for _, window := range []int{8, 16, 32} {
		tr, err := trace.Generate(trace.Uniform, trace.Config{Threads: 4, Objects: 4, Events: 80}, rng)
		if err != nil {
			t.Fatal(err)
		}
		s := predicate.NewStreamer(window)
		witnesses := 0
		for i := 0; i < tr.Len(); i++ {
			s.Add(tr.At(i))
			c, found, err := s.Possibly(pred, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				continue
			}
			witnesses++
			if !cut.IsConsistent(tr, c) {
				t.Fatalf("window=%d at event %d: witness %v is not a consistent cut of the full trace", window, i, c)
			}
			if c.PerThread[0]%2 != 1 || c.PerThread[1]%2 != 1 {
				t.Fatalf("window=%d at event %d: witness %v does not satisfy the predicate", window, i, c)
			}
		}
		if witnesses == 0 {
			t.Fatalf("window=%d: no witnesses found across the whole run", window)
		}
	}
}

// TestStreamerBarrier checks that Barrier folds the window into the base:
// afterwards exploration starts from the full prefix and the totals agree.
func TestStreamerBarrier(t *testing.T) {
	s := predicate.NewStreamer(0)
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite)
	tr.Append(1, 1, event.OpWrite)
	tr.Append(0, 1, event.OpWrite)
	for i := 0; i < tr.Len(); i++ {
		s.Add(tr.At(i))
	}
	s.Barrier()
	if s.Len() != 0 || s.Total() != 3 {
		t.Fatalf("after barrier: len=%d total=%d", s.Len(), s.Total())
	}
	// Only one state remains (everything executed); the predicate sees the
	// full counts through the base.
	_, found, err := s.Possibly(func(st *predicate.State) bool {
		return st.Executed(0) == 2 && st.Executed(1) == 1 && st.Total() == 3
	}, 0)
	if err != nil || !found {
		t.Fatalf("post-barrier state not found: found=%v err=%v", found, err)
	}
	// States that unexecute pre-barrier events are no longer reachable.
	_, found, err = s.Possibly(func(st *predicate.State) bool {
		return st.Executed(0) < 2
	}, 0)
	if err != nil || found {
		t.Fatalf("pre-barrier partial state should be unreachable: found=%v err=%v", found, err)
	}
}

// TestStreamerWindowMatchesBarrier pins what a bounded window holds after
// every Add, across its in-place compactions: a window-W streamer must
// answer exactly as an unbounded one fed everything but the last W events,
// folded with Barrier, and then those W events.
func TestStreamerWindowMatchesBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tr, err := trace.Generate(trace.Uniform, trace.Config{Threads: 4, Objects: 4, Events: 60}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 3, 8} {
		s := predicate.NewStreamer(window)
		for i := 0; i < tr.Len(); i++ {
			s.Add(tr.At(i))
			ref := predicate.NewStreamer(0)
			split := max(0, i+1-window)
			for j := 0; j < split; j++ {
				ref.Add(tr.At(j))
			}
			ref.Barrier()
			for j := split; j <= i; j++ {
				ref.Add(tr.At(j))
			}
			if s.Len() != ref.Len() || s.Total() != ref.Total() {
				t.Fatalf("window=%d after %d: len %d total %d, want %d %d", window, i, s.Len(), s.Total(), ref.Len(), ref.Total())
			}
			for name, pred := range streamerPreds() {
				gotCut, gotFound, gotErr := s.Possibly(pred, 1<<16)
				wantCut, wantFound, wantErr := ref.Possibly(pred, 1<<16)
				if gotFound != wantFound || (gotErr == nil) != (wantErr == nil) || gotCut.String() != wantCut.String() {
					t.Fatalf("window=%d after %d, %s: got (%v %v %v), want (%v %v %v)",
						window, i, name, gotCut, gotFound, gotErr, wantCut, wantFound, wantErr)
				}
			}
		}
	}
}

// TestStreamerAddAllocs: once the window is full and no new thread or
// object appears, Add folds and compacts in place and allocates nothing.
func TestStreamerAddAllocs(t *testing.T) {
	s := predicate.NewStreamer(16)
	i := 0
	add := func() {
		s.Add(event.Event{Index: i, Thread: event.ThreadID(i % 3), Object: event.ObjectID(i % 5)})
		i++
	}
	for i < 100 {
		add()
	}
	if allocs := testing.AllocsPerRun(1000, add); allocs != 0 {
		t.Fatalf("steady-state Add allocates %v per event, want 0", allocs)
	}
}
