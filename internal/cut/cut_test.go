package cut

import (
	"math/rand"
	"strings"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// pipelineTrace: T1 writes X, T2 reads X then writes Y, T3 reads Y.
// A clean causal chain e0 → e1 → e2 → e3.
func pipelineTrace() *event.Trace {
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite) // e0: T1 writes X
	tr.Append(1, 0, event.OpRead)  // e1: T2 reads X
	tr.Append(1, 1, event.OpWrite) // e2: T2 writes Y
	tr.Append(2, 1, event.OpRead)  // e3: T3 reads Y
	return tr
}

func stampsFor(t *testing.T, tr *event.Trace) []vclock.Vector {
	t.Helper()
	stamps, err := clock.RunAndValidate(tr, core.AnalyzeTrace(tr).NewClock())
	if err != nil {
		t.Fatal(err)
	}
	return stamps
}

func TestCutIncludesAndSize(t *testing.T) {
	c := Cut{PerThread: []int{2, 0, 1}}
	if !c.Includes(0, 1) || c.Includes(0, 2) {
		t.Error("Includes wrong for thread 0")
	}
	if c.Includes(1, 0) {
		t.Error("thread 1 should be empty")
	}
	if c.Includes(9, 0) {
		t.Error("unknown thread included")
	}
	if c.Size() != 3 {
		t.Errorf("Size = %d, want 3", c.Size())
	}
	if s := c.String(); !strings.Contains(s, "T1:2") {
		t.Errorf("String = %q", s)
	}
}

func TestIsConsistent(t *testing.T) {
	tr := pipelineTrace()
	tests := []struct {
		name string
		cut  Cut
		want bool
	}{
		{"empty", Cut{PerThread: []int{0, 0, 0}}, true},
		{"everything", Cut{PerThread: []int{1, 2, 1}}, true},
		{"prefix", Cut{PerThread: []int{1, 1, 0}}, true},
		{"orphan read", Cut{PerThread: []int{0, 1, 0}}, false},  // e1 without e0
		{"orphan chain", Cut{PerThread: []int{0, 0, 1}}, false}, // e3 without anything
		{"skip middle", Cut{PerThread: []int{1, 0, 1}}, false},  // e3 without e2
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsConsistent(tr, tt.cut); got != tt.want {
				t.Errorf("IsConsistent(%v) = %v, want %v", tt.cut, got, tt.want)
			}
		})
	}
}

func TestRecoveryLinePipeline(t *testing.T) {
	tr := pipelineTrace()
	stamps := stampsFor(t, tr)

	// Fault at e1 (T2's read): e1, e2, e3 are contaminated; only e0
	// survives.
	line, err := RecoveryLine(tr, stamps, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Cut{PerThread: []int{1, 0, 0}}
	for i := range want.PerThread {
		if line.PerThread[i] != want.PerThread[i] {
			t.Fatalf("recovery line %v, want %v", line, want)
		}
	}
	if !IsConsistent(tr, line) {
		t.Fatal("recovery line inconsistent")
	}

	contaminated, err := Contaminated(stamps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(contaminated) != 3 || contaminated[0] != 1 || contaminated[2] != 3 {
		t.Fatalf("Contaminated = %v, want [1 2 3]", contaminated)
	}
}

func TestRecoveryLineFaultAtSink(t *testing.T) {
	tr := pipelineTrace()
	stamps := stampsFor(t, tr)
	// Fault at the last event: everything else survives.
	line, err := RecoveryLine(tr, stamps, 3)
	if err != nil {
		t.Fatal(err)
	}
	if line.Size() != 3 {
		t.Fatalf("size = %d, want 3 (%v)", line.Size(), line)
	}
	if !IsConsistent(tr, line) {
		t.Fatal("inconsistent")
	}
}

func TestRecoveryLineErrors(t *testing.T) {
	tr := pipelineTrace()
	stamps := stampsFor(t, tr)
	if _, err := RecoveryLine(tr, stamps[:2], 0); err == nil {
		t.Error("stamp count mismatch accepted")
	}
	if _, err := RecoveryLine(tr, stamps, -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := RecoveryLine(tr, stamps, 99); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestContaminatedRange(t *testing.T) {
	stamps := stampsFor(t, pipelineTrace())
	for _, bad := range []int{-1, len(stamps), 99} {
		if got, err := Contaminated(stamps, bad); err == nil {
			t.Errorf("Contaminated(bad=%d) = %v, want a range error", bad, got)
		}
	}
	if _, err := Contaminated(nil, 0); err == nil {
		t.Error("Contaminated on no stamps accepted bad=0")
	}
}

func TestRecoveryLineAlwaysConsistentAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		tr := event.NewTrace()
		for i := 0; i < 30; i++ {
			tr.Append(event.ThreadID(rng.Intn(4)), event.ObjectID(rng.Intn(4)), event.OpWrite)
		}
		stamps := stampsFor(t, tr)
		for bad := 0; bad < tr.Len(); bad += 7 {
			line, err := RecoveryLine(tr, stamps, bad)
			if err != nil {
				t.Fatal(err)
			}
			if !IsConsistent(tr, line) {
				t.Fatalf("trial %d bad %d: inconsistent recovery line", trial, bad)
			}
			// Maximality: included events = all events minus contaminated.
			contaminated, err := Contaminated(stamps, bad)
			if err != nil {
				t.Fatal(err)
			}
			if got := line.Size() + len(contaminated); got != tr.Len() {
				t.Fatalf("trial %d bad %d: %d included + contaminated != %d",
					trial, bad, got, tr.Len())
			}
		}
	}
}
