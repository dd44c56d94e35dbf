package core

import (
	"math/rand"
	"testing"

	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// TestTimestampDeltaMatchesTimestamp replays the same computation through a
// materializing clock and a delta-capturing one and checks the per-thread
// replay of each capture reproduces the full stamp exactly — width included,
// since the log format and the tracker's record buffers both reconstruct
// through this contract.
func TestTimestampDeltaMatchesTimestamp(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		tr := randomTrace(rng, 6, 5, 400)
		a := AnalyzeTrace(tr)

		full := NewMixedClock(a.Components)
		delta := NewMixedClock(a.Components)
		prev := make(map[int]vclock.Vector)
		var scratch []vclock.Delta
		for i := 0; i < tr.Len(); i++ {
			e := tr.At(i)
			want := full.Timestamp(e)
			var ticks int
			scratch, ticks = delta.TimestampDelta(e, scratch[:0])
			if ticks < 1 || ticks > 2 || len(scratch) < ticks {
				t.Fatalf("event %d: tick count %d for a capture of %d", i, ticks, len(scratch))
			}
			got := prev[int(e.Thread)].Apply(scratch).Grow(delta.Components())
			prev[int(e.Thread)] = got
			if len(got) != len(want) {
				t.Fatalf("event %d: replay width %d, stamp width %d", i, len(got), len(want))
			}
			if !got.Equal(want) {
				t.Fatalf("event %d: replay %v, stamp %v", i, got, want)
			}
		}
		if err := full.Err(); err != nil {
			t.Fatal(err)
		}
		if err := delta.Err(); err != nil {
			t.Fatal(err)
		}
		if full.Events() != delta.Events() {
			t.Fatalf("event counts diverged: %d vs %d", full.Events(), delta.Events())
		}
	})
}

// TestTimestampDeltaUncovered pins that the delta path reports clock misuse
// through Err like the materializing path.
func TestTimestampDeltaUncovered(t *testing.T) {
	comps := NewComponentSet()
	comps.Add(ThreadComponent(0))
	c := NewMixedClock(comps)
	c.TimestampDelta(event.Event{Thread: 5, Object: 9}, nil)
	if c.Err() == nil {
		t.Fatal("uncovered event not reported")
	}
}

// TestUpdateRuleDeltaAgreesWithUpdateRule runs both rule forms side by side
// over a random schedule and requires identical clock evolution.
func TestUpdateRuleDeltaAgreesWithUpdateRule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width, steps = 8, 300
	var tvA, ovA, tvB, ovB vclock.Vector
	var ds []vclock.Delta
	for s := 0; s < steps; s++ {
		thrIdx, objIdx := rng.Intn(width), -1
		if rng.Intn(2) == 0 {
			objIdx = rng.Intn(width)
		}
		ta := UpdateRule(&tvA, &ovA, thrIdx, objIdx, width)
		var tb int
		ds, tb = UpdateRuleDelta(&tvB, &ovB, thrIdx, objIdx, width, ds[:0])
		want := 1 // the thread is always a component here
		if objIdx >= 0 {
			want++
		}
		if !ta || tb != want {
			t.Fatalf("step %d: ticked %v, tick count %d, want %d", s, ta, tb, want)
		}
		if !tvA.Equal(tvB) || !ovA.Equal(ovB) {
			t.Fatalf("step %d: clocks diverged", s)
		}
		if len(ds) == 0 {
			t.Fatalf("step %d: a ticking rule captured no change", s)
		}
	}
}
