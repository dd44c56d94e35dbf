package detect_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/cut"
	"mixedclock/internal/detect"
	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/trace"
	"mixedclock/internal/vclock"
)

// The quadratic reference implementations. The product analyses are linear
// (thread-clock sums, the streaming PairScanner, covering edges); these
// restate each one from its definition so the tests below check the linear
// code against something other than itself.

// pairwiseCensus compares every pair of stamps. With a valid clock this is
// the ground-truth census — Theorem 2 put to work on every pair.
func pairwiseCensus(stamps []vclock.Vector) detect.Census {
	c := detect.Census{Events: len(stamps)}
	for i := range stamps {
		for j := i + 1; j < len(stamps); j++ {
			c.Total++
			if stamps[i].Concurrent(stamps[j]) {
				c.Concurrent++
			} else {
				c.Ordered++
			}
		}
	}
	return c
}

// oracleCensus is the census read off the happened-before oracle.
func oracleCensus(o *hb.Oracle) detect.Census {
	n := o.Len()
	c := detect.Census{Events: n, Total: n * (n - 1) / 2, Concurrent: o.ConcurrentPairs()}
	c.Ordered = c.Total - c.Concurrent
	return c
}

// oraclePairs applies the schedule-sensitivity rule with full reachability:
// for the object-adjacent pair (e, f), any path e → f other than the direct
// object edge must leave e through its thread successor, so the pair is
// lock-only iff that successor is absent or does not reach f.
func oraclePairs(tr *event.Trace) []detect.Pair {
	oracle := hb.New(tr)
	var out []detect.Pair
	for i := 0; i < tr.Len(); i++ {
		j := oracle.ObjectSuccessor(i)
		if j < 0 {
			continue
		}
		e, f := tr.At(i), tr.At(j)
		if e.Thread == f.Thread || (e.Op == event.OpRead && f.Op == event.OpRead) {
			continue
		}
		if ts := oracle.ThreadSuccessor(i); ts >= 0 && oracle.HappenedBefore(ts, j) {
			continue
		}
		out = append(out, detect.Pair{First: e, Second: f})
	}
	return out
}

// oracleConsistent checks a cut by its definition: every happened-before
// predecessor of an included event is included.
func oracleConsistent(tr *event.Trace, o *hb.Oracle, c cut.Cut) bool {
	in := make([]bool, tr.Len())
	seq := make([]int, tr.Threads())
	for i := range in {
		t := tr.At(i).Thread
		in[i] = c.Includes(t, seq[t])
		seq[t]++
	}
	for i := range in {
		if !in[i] {
			continue
		}
		for _, j := range o.DownSet(i) {
			if !in[j] {
				return false
			}
		}
	}
	return true
}

// randomCut returns a per-thread prefix cut: half the time the cut at a
// random trace prefix (always consistent) nudged by one event on one
// thread, otherwise arbitrary prefix lengths.
func randomCut(tr *event.Trace, rng *rand.Rand) cut.Cut {
	per := make([]int, tr.Threads())
	counts := make([]int, tr.Threads())
	k := rng.Intn(tr.Len() + 1)
	for i := 0; i < tr.Len(); i++ {
		t := tr.At(i).Thread
		counts[t]++
		if i < k {
			per[t]++
		}
	}
	if len(per) == 0 {
		return cut.Cut{}
	}
	t := rng.Intn(len(per))
	if rng.Intn(2) == 0 {
		per[t] += rng.Intn(3) - 1
	} else {
		for t := range per {
			per[t] = rng.Intn(counts[t] + 1)
		}
	}
	per[t] = max(0, min(per[t], counts[t]))
	return cut.Cut{PerThread: per}
}

// checkAgainstOracle compares every linear analysis on tr against its
// quadratic reference: the census (thread-clock sums, pairwise mixed
// stamps, the oracle), the schedule-sensitive pairs in order, IsConsistent
// on random cuts, and hb.Adjacency against a scan of the trace and the
// oracle's reachability.
func checkAgainstOracle(t *testing.T, tr *event.Trace, rng *rand.Rand) {
	t.Helper()
	o := hb.New(tr)

	want := oracleCensus(o)
	if got := detect.TakeCensus(tr); got != want {
		t.Fatalf("TakeCensus %+v, oracle %+v", got, want)
	}
	stamps := clock.Run(tr, core.AnalyzeTrace(tr).NewClock())
	if got := pairwiseCensus(stamps); got != want {
		t.Fatalf("pairwise mixed-stamp census %+v, oracle %+v", got, want)
	}

	if got, want := detect.ScheduleSensitivePairs(tr), oraclePairs(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("ScheduleSensitivePairs %v, oracle %v", got, want)
	}

	for k := 0; k < 20; k++ {
		c := randomCut(tr, rng)
		if got, want := cut.IsConsistent(tr, c), oracleConsistent(tr, o, c); got != want {
			t.Fatalf("IsConsistent(%v) = %v, oracle %v", c, got, want)
		}
	}

	// Oracle embeds Adjacency, so its accessors are the code under test;
	// the reference is a direct scan for the nearest same-thread and
	// same-object events, each of which must be a causal edge.
	adj := hb.NewAdjacency(tr)
	for i := 0; i < tr.Len(); i++ {
		e := tr.At(i)
		ts, os, tp, op := -1, -1, -1, -1
		for j := tr.Len() - 1; j > i; j-- {
			if tr.At(j).Thread == e.Thread {
				ts = j
			}
			if tr.At(j).Object == e.Object {
				os = j
			}
		}
		for j := 0; j < i; j++ {
			if tr.At(j).Thread == e.Thread {
				tp = j
			}
			if tr.At(j).Object == e.Object {
				op = j
			}
		}
		if adj.ThreadSuccessor(i) != ts || adj.ObjectSuccessor(i) != os ||
			adj.ThreadPredecessor(i) != tp || adj.ObjectPredecessor(i) != op {
			t.Fatalf("event %d: adjacency (ts %d os %d tp %d op %d), scan (%d %d %d %d)", i,
				adj.ThreadSuccessor(i), adj.ObjectSuccessor(i), adj.ThreadPredecessor(i),
				adj.ObjectPredecessor(i), ts, os, tp, op)
		}
		for _, s := range []int{ts, os} {
			if s >= 0 && !o.HappenedBefore(i, s) {
				t.Fatalf("covering edge %d → %d not in the oracle", i, s)
			}
		}
	}
}

// TestLinearAnalysesMatchOracle runs every generator workload, several
// seeds and 30% reads through checkAgainstOracle.
func TestLinearAnalysesMatchOracle(t *testing.T) {
	for _, w := range trace.Workloads() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d/flat", w, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				tr, err := trace.Generate(w, trace.Config{Threads: 6, Objects: 5, Events: 160, ReadFraction: 0.3}, rng)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, tr, rng)
			})
		}
	}
}

// FuzzDetectOracle checks the linear analyses against the oracle on small
// fuzzed traces: each byte is one event, its low bits picking the thread
// and object and bit 4 making it a read.
func FuzzDetectOracle(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x05, 0x14})
	f.Add([]byte{0x00, 0x04, 0x01, 0x05, 0x10, 0x11, 0x0f, 0x03})
	f.Add([]byte("schedule-sensitive pairs"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		tr := event.NewTrace()
		for _, b := range data {
			op := event.OpWrite
			if b&0x10 != 0 {
				op = event.OpRead
			}
			tr.Append(event.ThreadID(b&3), event.ObjectID(b>>2&3), op)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		checkAgainstOracle(t, tr, rng)
	})
}
