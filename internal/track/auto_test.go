package track

import (
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// sliceTrace re-bases the events of full[start:end) as their own trace.
func sliceTrace(full *event.Trace, start, end int) *event.Trace {
	seg := event.NewTrace()
	for i := start; i < end; i++ {
		ev := full.At(i)
		seg.Append(ev.Thread, ev.Object, ev.Op)
	}
	return seg
}

// TestAutoBackendResolvesAtCompact pins the WithBackend(Auto) lifecycle:
// flat from the start (nothing observed), re-decided at each Compact from
// the compacted width and join shape.
func TestAutoBackendResolvesAtCompact(t *testing.T) {
	tr := mustOpen(t, "", WithBackend(vclock.BackendAuto))
	if tr.Backend() != vclock.BackendFlat {
		t.Fatalf("fresh auto tracker backend = %v, want flat", tr.Backend())
	}

	// A wide, causally local computation: every thread owns one object.
	// The optimal cover has one component per edge, so compaction sees a
	// width ≥ AutoTreeWidth with fan-in 1 and should switch to tree.
	threads := make([]*Thread, core.AutoTreeWidth+8)
	for i := range threads {
		threads[i] = tr.NewThread("w")
		threads[i].Write(tr.NewObject("p"), nil)
	}
	if _, size, err := tr.Compact(); err != nil {
		t.Fatal(err)
	} else if size < core.AutoTreeWidth {
		t.Fatalf("compacted width %d below threshold; workload broken", size)
	}
	if tr.Backend() != vclock.BackendTree {
		t.Fatalf("wide local computation resolved to %v, want tree", tr.Backend())
	}

	// The new epoch must still stamp correctly in the switched backend.
	for _, th := range threads[:8] {
		th.Write(tr.NewObject("fresh"), nil)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	starts := tr.EpochStarts()
	trace, stamps := tr.Snapshot()
	if err := clock.Validate(sliceTrace(trace, starts[1], trace.Len()),
		stamps[starts[1]:], "auto/epoch1"); err != nil {
		t.Fatal(err)
	}
}

// TestAutoBackendStaysFlatWhenNarrow pins the other side of the heuristic.
func TestAutoBackendStaysFlatWhenNarrow(t *testing.T) {
	tr := mustOpen(t, "", WithBackend(vclock.BackendAuto))
	th := tr.NewThread("t")
	o := tr.NewObject("o")
	for i := 0; i < 10; i++ {
		th.Write(o, nil)
	}
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	if tr.Backend() != vclock.BackendFlat {
		t.Fatalf("narrow computation resolved to %v, want flat", tr.Backend())
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}
