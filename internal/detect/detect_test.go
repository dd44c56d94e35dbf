package detect

import (
	"math/rand"
	"testing"

	"mixedclock/internal/event"
	"mixedclock/internal/hb"
)

func randomTrace(rng *rand.Rand, threads, objects, events int) *event.Trace {
	tr := event.NewTrace()
	for i := 0; i < events; i++ {
		op := event.OpWrite
		if rng.Intn(2) == 0 {
			op = event.OpRead
		}
		tr.Append(event.ThreadID(rng.Intn(threads)), event.ObjectID(rng.Intn(objects)), op)
	}
	return tr
}

func TestCensusMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		tr := randomTrace(rng, 4, 4, 40)
		c := TakeCensus(tr)
		oracle := hb.New(tr)
		if c.Concurrent != oracle.ConcurrentPairs() {
			t.Fatalf("trial %d: census says %d concurrent, oracle %d",
				trial, c.Concurrent, oracle.ConcurrentPairs())
		}
		if c.Total != tr.Len()*(tr.Len()-1)/2 {
			t.Fatalf("trial %d: total pairs %d", trial, c.Total)
		}
		if c.Ordered+c.Concurrent != c.Total {
			t.Fatalf("trial %d: census does not add up: %+v", trial, c)
		}
	}
}

func TestCensusParallelismBounds(t *testing.T) {
	if got := (Census{}).Parallelism(); got != 0 {
		t.Errorf("empty census parallelism = %f", got)
	}
	c := Census{Total: 10, Concurrent: 5}
	if got := c.Parallelism(); got != 0.5 {
		t.Errorf("parallelism = %f, want 0.5", got)
	}
}

func TestScheduleSensitiveSimple(t *testing.T) {
	// Two threads write the same object with no other synchronization:
	// their ordering is lock-only.
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite)
	tr.Append(1, 0, event.OpWrite)
	pairs := ScheduleSensitivePairs(tr)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v, want exactly one", pairs)
	}
	p := pairs[0]
	if p.First.Index != 0 || p.Second.Index != 1 {
		t.Fatalf("wrong pair: %v", p)
	}
}

func TestScheduleSensitiveSkipsSameThread(t *testing.T) {
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite)
	tr.Append(0, 0, event.OpWrite)
	if pairs := ScheduleSensitivePairs(tr); len(pairs) != 0 {
		t.Fatalf("same-thread pair flagged: %v", pairs)
	}
}

func TestScheduleSensitiveSkipsReadRead(t *testing.T) {
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpRead)
	tr.Append(1, 0, event.OpRead)
	if pairs := ScheduleSensitivePairs(tr); len(pairs) != 0 {
		t.Fatalf("read-read pair flagged: %v", pairs)
	}
}

func TestScheduleSensitiveSkipsIndependentlyOrdered(t *testing.T) {
	// T1 writes X, then T1 writes Y; T2 reads Y then writes X. The X pair
	// (e0, e3) is ordered through Y as well (e0 → e1 → e2 → e3), so the X
	// lock is not load-bearing... but wait: e0 → e1 (thread), e1 → e2
	// (object Y), e2 → e3 (thread) — an independent path exists, so the
	// pair must NOT be flagged.
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite) // e0: T1 writes X
	tr.Append(0, 1, event.OpWrite) // e1: T1 writes Y
	tr.Append(1, 1, event.OpRead)  // e2: T2 reads Y
	tr.Append(1, 0, event.OpWrite) // e3: T2 writes X
	pairs := ScheduleSensitivePairs(tr)
	for _, p := range pairs {
		if p.First.Object == 0 && p.First.Index == 0 {
			t.Fatalf("independently ordered pair flagged: %v", p)
		}
	}
	// The Y pair (e1, e2) IS lock-only: flag expected.
	found := false
	for _, p := range pairs {
		if p.First.Index == 1 && p.Second.Index == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("lock-only Y pair missing from %v", pairs)
	}
}

func TestScheduleSensitiveWriteReadFlagged(t *testing.T) {
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite)
	tr.Append(1, 0, event.OpRead)
	if pairs := ScheduleSensitivePairs(tr); len(pairs) != 1 {
		t.Fatalf("write→read pair not flagged: %v", pairs)
	}
}

func TestPairString(t *testing.T) {
	p := Pair{
		First:  event.Event{Thread: 0, Object: 1},
		Second: event.Event{Thread: 2, Object: 1},
	}
	if got := p.String(); got != "[T1, O2] <lock-only> [T3, O2]" {
		t.Errorf("String = %q", got)
	}
}

func TestConflictMatrix(t *testing.T) {
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite)
	tr.Append(1, 0, event.OpWrite)
	tr.Append(0, 1, event.OpWrite)
	tr.Append(2, 1, event.OpWrite)
	m := ConflictMatrix(tr)
	if m[0][1] != 1 {
		t.Errorf("m[0][1] = %d, want 1", m[0][1])
	}
	if m[0][2] != 1 {
		t.Errorf("m[0][2] = %d, want 1", m[0][2])
	}
	if m[1][0] != 0 {
		t.Errorf("m[1][0] = %d, want 0", m[1][0])
	}
}

func TestScheduleSensitiveEmptyTrace(t *testing.T) {
	if pairs := ScheduleSensitivePairs(event.NewTrace()); pairs != nil {
		t.Fatalf("empty trace flagged %v", pairs)
	}
}
