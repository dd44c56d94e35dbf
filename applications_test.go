package mixedclock_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"mixedclock"
)

// auditTrace: two tellers on one account plus an independent logger.
func auditTrace() *mixedclock.Trace {
	tr := mixedclock.NewTrace()
	tr.Append(0, 0, mixedclock.OpWrite) // e0: T1 writes account
	tr.Append(1, 0, mixedclock.OpWrite) // e1: T2 writes account (lock-only after e0)
	tr.Append(2, 1, mixedclock.OpWrite) // e2: T3 writes log (independent)
	return tr
}

func TestFacadeCensusAndPairs(t *testing.T) {
	tr := auditTrace()
	census := mixedclock.TakeCensus(tr)
	if census.Events != 3 || census.Concurrent != 2 || census.Ordered != 1 {
		t.Fatalf("census = %+v", census)
	}
	if census.Parallelism() <= 0 {
		t.Fatal("parallelism should be positive")
	}

	pairs := mixedclock.ScheduleSensitivePairs(tr)
	if len(pairs) != 1 || pairs[0].First.Index != 0 || pairs[0].Second.Index != 1 {
		t.Fatalf("pairs = %v", pairs)
	}

	m := mixedclock.ConflictMatrix(tr)
	if m[0][1] != 1 {
		t.Fatalf("conflict matrix = %v", m)
	}
}

func TestFacadeCutHelpers(t *testing.T) {
	tr := auditTrace()
	stamps := mixedclock.Run(tr, mixedclock.AnalyzeTrace(tr).NewClock())

	line, err := mixedclock.RecoveryLine(tr, stamps, 0)
	if err != nil {
		t.Fatal(err)
	}
	// e0 poisons e1 (same account); e2 survives.
	if line.Size() != 1 {
		t.Fatalf("recovery line %v has size %d, want 1", line, line.Size())
	}
	if !mixedclock.IsConsistentCut(tr, line) {
		t.Fatal("recovery line inconsistent")
	}
	if got, err := mixedclock.Contaminated(stamps, 0); err != nil || len(got) != 2 {
		t.Fatalf("Contaminated = %v, %v", got, err)
	}
	for _, bad := range []int{-1, len(stamps)} {
		if _, err := mixedclock.Contaminated(stamps, bad); err == nil {
			t.Fatalf("Contaminated(bad=%d) accepted", bad)
		}
	}
}

func TestFacadePredicateDetection(t *testing.T) {
	tr := auditTrace()
	// Possibly: T2 has written while T3 has not — reachable.
	_, found, err := mixedclock.Possibly(tr, func(s *mixedclock.GlobalState) bool {
		return s.Executed(1) == 1 && s.Executed(2) == 0
	}, 0)
	if err != nil || !found {
		t.Fatalf("Possibly = %v, %v", found, err)
	}
	// Definitely: the empty state predicate holds trivially at the start.
	def, err := mixedclock.Definitely(tr, func(s *mixedclock.GlobalState) bool {
		return s.Total() == 0
	}, 0)
	if err != nil || !def {
		t.Fatalf("Definitely = %v, %v", def, err)
	}
	// Budget errors surface as ErrStateBudget.
	wide := mixedclock.NewTrace()
	for i := 0; i < 12; i++ {
		wide.Append(mixedclock.ThreadID(i), mixedclock.ObjectID(i), mixedclock.OpWrite)
	}
	_, _, err = mixedclock.Possibly(wide, func(*mixedclock.GlobalState) bool { return false }, 8)
	if !errors.Is(err, mixedclock.ErrStateBudget) {
		t.Fatalf("want ErrStateBudget, got %v", err)
	}
}

func TestFacadeReplayHelpers(t *testing.T) {
	tr := auditTrace()
	if got := mixedclock.CountLinearizations(tr, 0); got != 3 {
		t.Fatalf("linearizations = %d, want 3", got)
	}
	perm := mixedclock.RandomLinearization(tr, rand.New(rand.NewSource(2)))
	if !mixedclock.IsLinearization(tr, perm) {
		t.Fatalf("sampled permutation %v illegal", perm)
	}
	re, err := mixedclock.Reorder(tr, perm)
	if err != nil || re.Len() != tr.Len() {
		t.Fatalf("Reorder: %v", err)
	}
	if _, err := mixedclock.Reorder(tr, []int{2, 1, 0}); err == nil {
		t.Fatal("illegal reorder accepted (e1 before e0 violates account order)")
	}
}

func TestFacadeLogRoundTrip(t *testing.T) {
	tr := auditTrace()
	stamps := mixedclock.Run(tr, mixedclock.AnalyzeTrace(tr).NewClock())

	var buf bytes.Buffer
	if err := mixedclock.WriteLog(&buf, tr, stamps); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)

	gotTr, gotStamps, err := mixedclock.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotTr.Len() != tr.Len() {
		t.Fatalf("round trip lost events: %d", gotTr.Len())
	}
	for i := range gotStamps {
		if !gotStamps[i].Equal(stamps[i]) {
			t.Fatalf("stamp %d changed", i)
		}
	}

	// Truncated logs surface ErrLogTruncated with the prefix intact.
	_, _, err = mixedclock.ReadLog(bytes.NewReader(full[:len(full)-1]))
	if !errors.Is(err, mixedclock.ErrLogTruncated) {
		t.Fatalf("want ErrLogTruncated, got %v", err)
	}
}

func TestFacadeTrackerCompaction(t *testing.T) {
	tracker := openTracker(t)
	th := tracker.NewThread("t")
	o := tracker.NewObject("o")
	pre := th.Write(o, nil)
	epoch, size, err := tracker.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || size != 1 {
		t.Fatalf("Compact = %d, %d", epoch, size)
	}
	post := th.Write(o, nil)
	if !pre.HappenedBefore(post) {
		t.Fatal("cross-epoch order lost")
	}
	if tracker.EpochOf(0) != 0 || tracker.EpochOf(1) != 1 {
		t.Fatal("EpochOf wrong")
	}
}
