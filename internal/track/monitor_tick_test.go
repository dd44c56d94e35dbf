package track

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mixedclock/internal/cut"
	"mixedclock/internal/detect"
	"mixedclock/internal/event"
	"mixedclock/internal/trace"
	"mixedclock/internal/vclock"
)

// tickedRecord is a sealed record as the replay hands it to a Monitor:
// with the components its segment reader says it ticked, c[:n], n = 0 for
// a full or delta record.
type tickedRecord struct {
	streamRecord
	c [2]int
	n int
}

// tickedSink collects a replay's records with their ticks; it takes them
// through tickSink, as the Monitor does.
type tickedSink struct{ recs []tickedRecord }

func (s *tickedSink) ConsumeStamp(e event.Event, epoch int, v vclock.Vector) error {
	s.recs = append(s.recs, tickedRecord{streamRecord: streamRecord{e, epoch, v.Clone()}})
	return nil
}

func (s *tickedSink) consumeTicked(e event.Event, epoch int, v vclock.Vector, c [2]int, n int) error {
	s.recs = append(s.recs, tickedRecord{streamRecord{e, epoch, v.Clone()}, c, n})
	return nil
}

// lineVerdict is what a feed leaves behind for the equivalence check.
type lineVerdict struct {
	census  detect.Census
	skipped int
	pairs   []detect.Pair
	orders  int
	line    cut.Cut
	armed   bool
}

// tickFeedFirst and tickFeedSecond are the order watch both sides run: a
// write to object 1 concurrent with the latest write to object 0.
func tickFeedFirst(e event.Event) bool  { return e.Object == 0 && e.Op == event.OpWrite }
func tickFeedSecond(e event.Event) bool { return e.Object == 1 && e.Op == event.OpWrite }

// feedMonitor runs recs through a fresh Monitor's sink, with the reader's
// ticks when ticked and as plain stamps otherwise.
func feedMonitor(t *testing.T, recs []tickedRecord, window int, ticked bool) lineVerdict {
	t.Helper()
	m := mustOpen(t, "").NewMonitor(MonitorPolicy{Window: window})
	defer m.Close()
	m.WatchOrder("o1-after-o0", tickFeedFirst, tickFeedSecond)
	sink := monitorSink{m}
	m.mu.Lock()
	for _, r := range recs {
		var err error
		if ticked && r.n > 0 {
			err = sink.consumeTicked(r.e, r.epoch, r.v, r.c, r.n)
		} else {
			err = sink.ConsumeStamp(r.e, r.epoch, r.v)
		}
		if err != nil {
			m.mu.Unlock()
			t.Fatal(err)
		}
	}
	m.mu.Unlock()
	st := m.Stats()
	if st.Detections >= RecentDetections {
		t.Fatalf("%d detections overflow the ring the check reads", st.Detections)
	}
	var v lineVerdict
	v.census, v.skipped, v.orders = st.Census, st.CensusSkipped, st.Orders
	for _, d := range m.Detections() {
		if d.Kind == DetectPair {
			v.pairs = append(v.pairs, detect.Pair{First: d.Other, Second: d.Event})
		}
	}
	v.pairs = sortedPairs(v.pairs)
	v.line, v.armed = m.RecoveryLine()
	return v
}

// feedStamps is the reference: the same analyses by stamp comparison
// alone — the census pair by pair over the window, the pair scanner and
// the recovery line given no tick — restarting at a gap as the Monitor
// does.
func feedStamps(recs []tickedRecord, window int) lineVerdict {
	var v lineVerdict
	var win []streamRecord
	sc := detect.NewPairScanner()
	lt := cut.NewLineTracker()
	var first *streamRecord
	for j, r := range recs {
		if j > 0 && r.e.Index != recs[j-1].e.Index+1 {
			win, first = win[:0], nil
			sc.Reset()
		}
		v.skipped += v.census.Events - len(win)
		for _, w := range win {
			v.census.Total++
			if windowOrdered(w, r.streamRecord) {
				v.census.Ordered++
			} else {
				v.census.Concurrent++
			}
		}
		v.census.Events++
		if win = append(win, r.streamRecord); window > 0 && len(win) > window {
			win = win[1:]
		}
		if p, ok := sc.Add(r.e, r.epoch, r.v); ok {
			v.pairs = append(v.pairs, p)
		}
		if tickFeedSecond(r.e) && first != nil && first.epoch == r.epoch && first.v.Concurrent(r.v) {
			v.orders++
			if !lt.Armed() {
				lt.Arm(r.e.Index, r.epoch, r.v)
			}
		}
		if tickFeedFirst(r.e) {
			first = &recs[j].streamRecord
		}
		lt.Add(r.e, r.epoch, r.v)
	}
	v.pairs = sortedPairs(v.pairs)
	if v.armed = lt.Armed(); v.armed {
		v.line = lt.Line()
	}
	return v
}

// TestMonitorTickEquivalence is the tick lemma's equivalence property: the
// Monitor's census, schedule-sensitive pairs and recovery line are the
// same whether its records carry the segment reader's ticks (the O(1)
// tests) or not (the running-maximum scan and stamp comparisons), and
// equal the stamp-comparison reference, on every generator workload with
// two epoch changes, fed whole, from a mid-epoch anchor, across a
// mid-epoch retention gap and across a gap over an epoch change. It also
// checks the reader's ticks themselves: each names a component the record
// raised past every earlier stamp of its epoch.
func TestMonitorTickEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	armed := 0
	for _, wl := range trace.Workloads() {
		src, err := trace.Generate(wl, trace.Config{Threads: 8, Objects: 8, Events: 600}, rng)
		if err != nil {
			t.Fatal(err)
		}
		tr := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealEvery: 50}}))
		threads := make([]*Thread, src.Threads())
		for i := range threads {
			threads[i] = tr.NewThread(fmt.Sprintf("t%d", i))
		}
		objects := make([]*Object, src.Objects())
		for i := range objects {
			objects[i] = tr.NewObject(fmt.Sprintf("o%d", i))
		}
		for i := 0; i < src.Len(); i++ {
			if i == 220 || i == 430 {
				if _, _, err := tr.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			e := src.At(i)
			threads[e.Thread].Do(objects[e.Object], e.Op, nil)
		}
		if err := tr.Seal(); err != nil {
			t.Fatal(err)
		}
		var sink tickedSink
		if n, err := tr.replaySealed(&sink, 0, -1); err != nil || n != src.Len() {
			t.Fatalf("%v: replayed %d of %d records: %v", wl, n, src.Len(), err)
		}
		recs := sink.recs
		checkReaderTicks(t, wl, recs)

		for _, sc := range []struct {
			name string
			recs []tickedRecord
		}{
			{"whole", recs},
			{"anchor", recs[137:]},
			{"gap", append(recs[:113:113], recs[187:]...)},
			{"gap-over-epoch", append(recs[:161:161], recs[263:]...)},
		} {
			for _, w := range []int{0, 5} {
				t.Run(fmt.Sprintf("%v/%s/W=%d", wl, sc.name, w), func(t *testing.T) {
					withTicks := feedMonitor(t, sc.recs, w, true)
					noTicks := feedMonitor(t, sc.recs, w, false)
					want := feedStamps(sc.recs, w)
					if !reflect.DeepEqual(withTicks, noTicks) {
						t.Fatalf("reader ticks change the verdict:\nwith    %+v\nwithout %+v", withTicks, noTicks)
					}
					if !reflect.DeepEqual(withTicks, want) {
						t.Fatalf("verdict differs from stamp comparison:\ngot  %+v\nwant %+v", withTicks, want)
					}
					if withTicks.armed {
						armed++
					}
				})
			}
		}
	}
	if armed == 0 {
		t.Error("no feed armed a recovery line")
	}
}

// checkReaderTicks checks every reader tick against the running maximum
// of its epoch, and that most records carry ticks at all.
func checkReaderTicks(t *testing.T, wl trace.Workload, recs []tickedRecord) {
	t.Helper()
	var hi vclock.Vector
	ticked := 0
	for j, r := range recs {
		if j == 0 || r.epoch != recs[j-1].epoch {
			hi = nil
		}
		for k := range r.n {
			if c := r.c[k]; c >= len(r.v) || r.v[c] <= hi.At(c) || (k > 0 && c <= r.c[k-1]) {
				t.Fatalf("%v: record %d names tick %v of %v; its stamp %v does not raise it past %v", wl, r.e.Index, r.c[k], r.c[:r.n], r.v, hi)
			}
		}
		if r.n > 0 {
			ticked++
		}
		hi = hi.Grow(len(r.v))
		hi.MergeInPlace(r.v)
	}
	if ticked < len(recs)/2 {
		t.Fatalf("%v: only %d of %d records carry reader ticks", wl, ticked, len(recs))
	}
}

// TestMonitorMemoryBounded: a Monitor consuming 600k records of a stream
// in which most records complete a schedule-sensitive pair holds a live
// heap bounded by its window and RecentDetections, not by the records it
// has read. The stream is one recorded run of 4000 records replayed lap
// after lap, each lap a new epoch with its indices following on, which is
// what a run of epoch Compacts delivers. Detections are collected through
// OnDetection into a ring of the caller's own, as a long-running caller
// would, and Detections must return the same last RecentDetections.
func TestMonitorMemoryBounded(t *testing.T) {
	src, err := trace.Generate(trace.Uniform, trace.Config{Threads: 8, Objects: 8, Events: 4000}, rand.New(rand.NewSource(59)))
	if err != nil {
		t.Fatal(err)
	}
	from := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealEvery: 500}}))
	replayTrace(t, from, src, -1)
	recs := streamRecords(t, from)

	tr := mustOpen(t, "")
	var last [RecentDetections]Detection
	delivered := 0
	m := tr.NewMonitor(MonitorPolicy{Window: 16, OnDetection: func(d Detection) {
		last[delivered%RecentDetections] = d
		delivered++
	}})
	defer m.Close()
	m.WatchOrder("o1-after-o0", tickFeedFirst, tickFeedSecond)
	sink := monitorSink{m}
	lap := func(k int) {
		m.mu.Lock()
		for _, r := range recs {
			e := r.e
			e.Index += k * len(recs)
			if err := sink.ConsumeStamp(e, k, r.v); err != nil {
				t.Fatal(err)
			}
		}
		m.deliver(m.finishBatchLocked())
		m.mu.Unlock()
	}
	const warm, laps = 2, 150
	for k := range warm {
		lap(k)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for k := warm; k < laps; k++ {
		lap(k)
	}
	grew := int64(heap()) - int64(before)
	st := m.Stats()
	if st.Consumed != laps*len(recs) || st.Pairs < st.Consumed/2 {
		t.Fatalf("consumed %d records with %d pairs: want %d records, most completing a pair", st.Consumed, st.Pairs, laps*len(recs))
	}
	if delivered != st.Detections {
		t.Fatalf("delivered %d of %d detections", delivered, st.Detections)
	}
	k := delivered % RecentDetections
	if got, want := m.Detections(), append(last[k:], last[:k]...); !reflect.DeepEqual(got, want) {
		t.Fatalf("Detections() holds %d detections, not the last %d delivered", len(got), len(want))
	}
	// What may grow: nothing. The window, the ring and the per-thread and
	// per-object state reached their size in the warm-up laps; allow a
	// little for the runtime's own bookkeeping.
	const slack = 256 << 10
	if grew > slack {
		t.Fatalf("live heap grew %d B over %d records (%d detections), want ≤ %d", grew, st.Consumed-warm*len(recs), st.Detections, slack)
	}
	t.Logf("live heap grew %d B over %d records (%d detections)", grew, st.Consumed-warm*len(recs), st.Detections)
}

// The test sink takes ticks the way the Monitor does.
var _ tickSink = (*tickedSink)(nil)
