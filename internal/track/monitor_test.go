package track

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mixedclock/internal/detect"
	"mixedclock/internal/event"
	"mixedclock/internal/predicate"
	"mixedclock/internal/trace"
	"mixedclock/internal/vclock"
)

// oddPred is the monitor-equivalence predicate: threads 0 and 1 are both
// mid-"transaction" (odd local event count). It exercises the Executed
// accessor and is satisfiable-but-not-trivial on the generator workloads.
func oddPred(s *predicate.State) bool {
	return s.Executed(0)%2 == 1 && s.Executed(1)%2 == 1
}

// sortedPairs normalizes a pair set for set-equality comparison; the
// streaming scanner emits at the second event, the offline scan at the
// first, so only the sets match, not the orders.
func sortedPairs(ps []detect.Pair) []detect.Pair {
	out := append([]detect.Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].First.Index != out[j].First.Index {
			return out[i].First.Index < out[j].First.Index
		}
		return out[i].Second.Index < out[j].Second.Index
	})
	return out
}

// TestMonitorMatchesOffline is the online-detection equivalence property:
// for every generator workload, a Monitor with an unbounded window fed through real seals must agree exactly with the
// offline analyses over the final snapshot — census, schedule-sensitive
// pair set, predicate-watch verdict and witness, and happened-before
// answers.
func TestMonitorMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, wl := range trace.Workloads() {
		src, err := trace.Generate(wl, trace.Config{Threads: 6, Objects: 6, Events: 240}, rng)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%v/flat", wl), func(t *testing.T) {
			tr := mustOpen(t, t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: 75}}))
			m := tr.NewMonitor(MonitorPolicy{})
			m.WatchPossibly("both-odd", oddPred)
			defer m.Close()

			replayTrace(t, tr, src, -1)
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}

			full, stamps := tr.Snapshot()
			stats := m.Stats()
			if stats.Consumed != full.Len() {
				t.Fatalf("consumed %d of %d events", stats.Consumed, full.Len())
			}
			if want := detect.TakeCensus(full); stats.Census != want || stats.CensusSkipped != 0 {
				t.Fatalf("census %+v (skipped %d), want %+v", stats.Census, stats.CensusSkipped, want)
			}
			if stats.CoverLowerBound > stats.ClockWidth {
				t.Fatalf("König lower bound %d exceeds live clock width %d", stats.CoverLowerBound, stats.ClockWidth)
			}

			var online []detect.Pair
			var possibly []Detection
			for _, d := range m.Detections() {
				switch d.Kind {
				case DetectPair:
					online = append(online, detect.Pair{First: d.Other, Second: d.Event})
				case DetectPossibly:
					possibly = append(possibly, d)
				}
			}
			if want := ScheduleSensitivePairsOffline(full); !reflect.DeepEqual(sortedPairs(online), want) {
				t.Fatalf("pair sets differ: online %d, offline %d", len(online), len(want))
			}

			witness, found, err := predicate.Possibly(full, oddPred, 0)
			if err != nil {
				t.Fatal(err)
			}
			if found != (len(possibly) == 1) {
				t.Fatalf("possibly: online fired=%v, offline found=%v", len(possibly) == 1, found)
			}
			if found && possibly[0].Witness.String() != witness.String() {
				t.Fatalf("witness %v, want %v", possibly[0].Witness, witness)
			}

			for trial := 0; trial < 200; trial++ {
				i, j := rng.Intn(full.Len()), rng.Intn(full.Len())
				got, ok := m.HappenedBefore(i, j)
				if !ok {
					t.Fatalf("unbounded window refused query (%d,%d)", i, j)
				}
				if want := stamps[i].Less(stamps[j]); got != want {
					t.Fatalf("hb(%d,%d)=%v, want %v", i, j, got, want)
				}
			}
		})
	}
}

// ScheduleSensitivePairsOffline is the sorted offline pair set; a seam so
// the equivalence test reads symmetrically.
func ScheduleSensitivePairsOffline(tr *event.Trace) []detect.Pair {
	return sortedPairs(detect.ScheduleSensitivePairs(tr))
}

// TestMonitorWatchOrder checks order-watch semantics on a hand-built
// history: a write racing the guarded write fires with exact provenance,
// a causally ordered one does not, and the first detection arms a
// consistent recovery line.
func TestMonitorWatchOrder(t *testing.T) {
	tr := mustOpen(t, "")
	m := tr.NewMonitor(MonitorPolicy{})
	guard := tr.NewObject("guard")
	data := tr.NewObject("data")
	m.WatchOrder("data-after-guard",
		func(e event.Event) bool { return e.Object == 0 && e.Op == event.OpWrite },
		func(e event.Event) bool { return e.Object == 1 && e.Op == event.OpWrite },
	)
	a := tr.NewThread("a")
	b := tr.NewThread("b")

	a.Write(guard, nil)
	b.Write(data, nil) // concurrent with a's guard write: violation
	b.Read(guard, nil) // picks up a's write: causal edge a -> b
	b.Write(data, nil) // ordered after the guard write: clean
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	ds := m.Detections()
	var orders []Detection
	for _, d := range ds {
		if d.Kind == DetectOrder {
			orders = append(orders, d)
		}
	}
	if len(orders) != 1 {
		t.Fatalf("got %d order detections, want 1: %v", len(orders), ds)
	}
	d := orders[0]
	if d.Index != 1 || d.Other.Index != 0 || d.Epoch != 0 {
		t.Fatalf("provenance: %+v", d)
	}
	line, ok := m.RecoveryLine()
	if !ok {
		t.Fatal("recovery line not armed after order detection")
	}
	full, _ := tr.Snapshot()
	if got := line.String(); got == "" {
		t.Fatalf("empty recovery line for %d-event history", full.Len())
	}
}

// TestMonitorOverlapsCommits races a live monitor against concurrent
// committers with auto-sealing armed: sealed-segment evaluation must not
// stop the world (commits keep landing while the monitor consumes), and
// after a final Seal+Sync the monitor has evaluated every committed record
// with in-range provenance. Run under -race and -count in CI.
func TestMonitorOverlapsCommits(t *testing.T) {
	tr := mustOpen(t, t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: 64}}))
	const nWorkers, nObjects, opsPer = 6, 4, 300
	objects := make([]*Object, nObjects)
	for i := range objects {
		objects[i] = tr.NewObject(fmt.Sprintf("o%d", i))
	}
	var cbMu sync.Mutex
	var viaCallback int
	m := tr.NewMonitor(MonitorPolicy{
		Window: 128,
		OnDetection: func(d Detection) {
			cbMu.Lock()
			viaCallback++
			cbMu.Unlock()
		},
	})
	defer m.Close()

	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		th := tr.NewThread(fmt.Sprintf("w%d", w))
		wg.Add(1)
		go func(th *Thread, w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if (w+i)%3 == 0 {
					th.Read(objects[(w+i)%nObjects], nil)
				} else {
					th.Write(objects[(w+i)%nObjects], nil)
				}
			}
		}(th, w)
	}
	wg.Wait()
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	total := tr.Events()
	if total != nWorkers*opsPer {
		t.Fatalf("committed %d events, want %d", total, nWorkers*opsPer)
	}
	stats := m.Stats()
	if stats.Consumed != total {
		t.Fatalf("monitor consumed %d of %d", stats.Consumed, total)
	}
	ds := m.Detections()
	for _, d := range ds {
		if d.Index < 0 || d.Index >= total {
			t.Fatalf("detection index %d out of range [0,%d): %v", d.Index, total, d)
		}
	}
	// The goroutine may still be mid-delivery for a seal-triggered batch
	// when Sync returns; Close joins it, after which every detection has
	// gone through the callback.
	m.Close()
	cbMu.Lock()
	defer cbMu.Unlock()
	if viaCallback != len(ds) {
		t.Fatalf("callback saw %d detections, Detections() has %d", viaCallback, len(ds))
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// streamRecord is one (event, epoch, stamp) record of a finished run, as
// Stream delivers it.
type streamRecord struct {
	e     event.Event
	epoch int
	v     vclock.Vector
}

type recordSink struct{ recs []streamRecord }

func (s *recordSink) ConsumeStamp(e event.Event, epoch int, v vclock.Vector) error {
	s.recs = append(s.recs, streamRecord{e, epoch, v.Clone()})
	return nil
}

// streamRecords replays the tracker's whole history with epochs.
func streamRecords(t *testing.T, tr *Tracker) []streamRecord {
	t.Helper()
	var s recordSink
	if err := tr.Stream(&s); err != nil {
		t.Fatal(err)
	}
	return s.recs
}

// windowOrdered is the brute-force verdict on records i < j: a Compact
// barrier orders epochs, and within an epoch the stamps decide (Theorem 2).
func windowOrdered(a, b streamRecord) bool {
	return a.epoch != b.epoch || !a.v.Concurrent(b.v)
}

// bruteHappenedBefore is happened-before between two records.
func bruteHappenedBefore(a, b streamRecord) bool {
	if a.epoch != b.epoch {
		return a.epoch < b.epoch
	}
	return a.v.Less(b.v)
}

// brutePairs is the schedule-sensitive pair rule straight from the records:
// f's object predecessor e in the same epoch, on another thread, not both
// reads, whose thread successor does not happen before f.
func brutePairs(recs []streamRecord) []detect.Pair {
	var out []detect.Pair
	for j, f := range recs {
		i := j - 1
		for i >= 0 && recs[i].e.Object != f.e.Object {
			i--
		}
		if i < 0 || recs[i].epoch != f.epoch {
			continue
		}
		e := recs[i]
		if e.e.Thread == f.e.Thread || (e.e.Op == event.OpRead && f.e.Op == event.OpRead) {
			continue
		}
		ts := i + 1
		for ts < len(recs) && recs[ts].e.Thread != e.e.Thread {
			ts++
		}
		if ts < j && bruteHappenedBefore(recs[ts], f) {
			continue
		}
		out = append(out, detect.Pair{First: e.e, Second: f.e})
	}
	return sortedPairs(out)
}

// TestMonitorBoundedWindow checks a Monitor with a bounded window against a
// brute-force computation over the streamed history, on every generator
// workload, with an epoch Compact and clock growth while
// the window is full: the census compares each event with exactly its W
// predecessors and counts the rest as skipped, HappenedBefore/Concurrent
// answer exactly inside [Consumed−W, Consumed) and refuse outside it, and
// the pair set is exact regardless of the window.
func TestMonitorBoundedWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	grewMidWindow := map[int]bool{}
	for _, wl := range trace.Workloads() {
		src, err := trace.Generate(wl, trace.Config{Threads: 8, Objects: 8, Events: 240}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 3, 16} {
			t.Run(fmt.Sprintf("%v/flat/W=%d", wl, w), func(t *testing.T) {
				tr := mustOpen(t, t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: 50}}))
				m := tr.NewMonitor(MonitorPolicy{Window: w})
				defer m.Close()
				replayTrace(t, tr, src, 120)
				if err := m.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := m.Err(); err != nil {
					t.Fatal(err)
				}
				recs := streamRecords(t, tr)
				n := len(recs)
				if recs[n-1].epoch != 1 {
					t.Fatalf("last record in epoch %d, want 1 (one Compact)", recs[n-1].epoch)
				}
				for j := w; j < n; j++ {
					if recs[j].epoch == recs[j-1].epoch && len(recs[j].v) > len(recs[j-1].v) {
						grewMidWindow[w] = true
					}
				}

				var want detect.Census
				skipped := 0
				for j := range recs {
					want.Events++
					lo := max(0, j-w)
					skipped += lo
					for i := lo; i < j; i++ {
						want.Total++
						if windowOrdered(recs[i], recs[j]) {
							want.Ordered++
						} else {
							want.Concurrent++
						}
					}
				}
				stats := m.Stats()
				if stats.Consumed != n {
					t.Fatalf("consumed %d of %d", stats.Consumed, n)
				}
				if stats.Census != want || stats.CensusSkipped != skipped {
					t.Fatalf("census %+v (skipped %d), want %+v (skipped %d)", stats.Census, stats.CensusSkipped, want, skipped)
				}
				if lo := max(0, n-w); stats.WindowLo != lo {
					t.Fatalf("WindowLo %d, want %d", stats.WindowLo, lo)
				}

				for i := max(0, n-w-2); i < n; i++ {
					for j := max(0, n-w-2); j < n; j++ {
						inWindow := i >= n-w && j >= n-w
						hbGot, ok := m.HappenedBefore(i, j)
						if ok != inWindow {
							t.Fatalf("HappenedBefore(%d,%d) ok=%v, in window %v", i, j, ok, inWindow)
						}
						concGot, okc := m.Concurrent(i, j)
						if okc != inWindow {
							t.Fatalf("Concurrent(%d,%d) ok=%v, in window %v", i, j, okc, inWindow)
						}
						if !ok {
							continue
						}
						if want := bruteHappenedBefore(recs[i], recs[j]); hbGot != want {
							t.Fatalf("HappenedBefore(%d,%d)=%v, want %v", i, j, hbGot, want)
						}
						wantConc := i != j && recs[i].epoch == recs[j].epoch && recs[i].v.Concurrent(recs[j].v)
						if concGot != wantConc {
							t.Fatalf("Concurrent(%d,%d)=%v, want %v", i, j, concGot, wantConc)
						}
					}
				}

				var online []detect.Pair
				for _, d := range m.Detections() {
					if d.Kind == DetectPair {
						online = append(online, detect.Pair{First: d.Other, Second: d.Event})
					}
				}
				if want := brutePairs(recs); !reflect.DeepEqual(sortedPairs(online), want) {
					t.Fatalf("pair sets differ: online %d, brute force %d", len(online), len(want))
				}
			})
		}
	}
	for _, w := range []int{1, 3, 16} {
		if !grewMidWindow[w] {
			t.Errorf("W=%d: no run widened the clock with the window full", w)
		}
	}
}

// TestMonitorStartsAtRetentionFloor: a Monitor attached to a tracker whose
// history starts above index 0 consumes from the retention floor, anchors
// its window there, answers for the right events, and counts the retired
// prefix as skipped instead of failing.
func TestMonitorStartsAtRetentionFloor(t *testing.T) {
	tr := buildEpochs(t, t.TempDir())
	if _, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	floor := tr.RetainedEvents()
	if floor != 30 || tr.Events() != 40 {
		t.Fatalf("setup: floor %d of %d events, want 30 of 40", floor, tr.Events())
	}
	m := tr.NewMonitor(MonitorPolicy{Window: 16})
	defer m.Close()
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("monitor error: %v", err)
	}
	st := m.Stats()
	if st.Consumed != 40 || st.Skipped != floor || st.WindowLo != floor || st.Census.Events != 10 {
		t.Fatalf("stats %+v, want 40 consumed, %d skipped, window from %d, 10 censused", st, floor, floor)
	}
	if _, ok := m.HappenedBefore(0, 1); ok {
		t.Fatal("HappenedBefore answered for retired events 0,1")
	}
	if hb, ok := m.HappenedBefore(floor, floor+1); !ok || !hb {
		t.Fatalf("HappenedBefore(%d,%d) = %v ok=%v, want true (program order)", floor, floor+1, hb, ok)
	}
}

// TestMonitorSkipsRetiredGap: when a retention pass overtakes a lagging
// monitor, the monitor skips to the new floor, counts the gap, and treats it
// as a barrier: the window restarts at the floor and nothing before the gap
// stays answerable.
func TestMonitorSkipsRetiredGap(t *testing.T) {
	tr := buildEpochs(t, t.TempDir())
	m := tr.NewMonitor(MonitorPolicy{Window: 16})
	defer m.Close()
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	th := tr.NewThread("t1")
	ob := tr.NewObject("o1")
	// Hold the monitor's lock so it cannot consume while the next epoch is
	// sealed, graduated and retired underneath it.
	m.mu.Lock()
	for i := 0; i < 10; i++ {
		th.Write(ob, nil)
	}
	if _, _, err := tr.Compact(); err != nil {
		m.mu.Unlock()
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		th.Write(ob, nil)
	}
	if err := tr.Seal(); err != nil {
		m.mu.Unlock()
		t.Fatal(err)
	}
	_, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1})
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	floor := tr.RetainedEvents()
	if floor != 50 {
		t.Fatalf("setup: floor %d, want 50", floor)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("monitor error: %v", err)
	}
	st := m.Stats()
	if st.Consumed != 60 || st.Skipped != 10 || st.WindowLo != floor || st.Census.Events != 50 {
		t.Fatalf("stats %+v, want 60 consumed, 10 skipped, window from %d, 50 censused", st, floor)
	}
	if _, ok := m.HappenedBefore(39, floor); ok {
		t.Fatal("HappenedBefore answered across the retired gap")
	}
	if hb, ok := m.HappenedBefore(floor, floor+1); !ok || !hb {
		t.Fatalf("HappenedBefore(%d,%d) = %v ok=%v, want true", floor, floor+1, hb, ok)
	}
}

// TestMonitorUnreadableHistoryFails: a monitor attached above the floor
// whose first retained spill file is lost or corrupt fails Sync with an
// error instead of retrying forever, and Close still returns. Only a floor
// that moves past the replay is worth a retry; a broken file fails the same
// way every time.
func TestMonitorUnreadableHistoryFails(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(path string) error
	}{
		{"removed", os.Remove},
		{"corrupt", func(path string) error { return os.WriteFile(path, []byte("not a segment"), 0o666) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := buildEpochs(t, t.TempDir())
			if _, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1}); err != nil {
				t.Fatal(err)
			}
			segs := tr.Segments()
			if len(segs) == 0 || segs[0].FirstIndex != tr.RetainedEvents() || segs[0].Path == "" {
				t.Fatalf("setup: segments %+v, floor %d", segs, tr.RetainedEvents())
			}
			if err := tc.spoil(segs[0].Path); err != nil {
				t.Fatal(err)
			}
			m := tr.NewMonitor(MonitorPolicy{Window: 16})
			within := func(what string, f func()) {
				t.Helper()
				done := make(chan struct{})
				go func() { f(); close(done) }()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s did not return", what)
				}
			}
			var err error
			within("Sync", func() { err = m.Sync() })
			if err == nil {
				t.Fatal("Sync over an unreadable segment returned no error")
			}
			within("Close", m.Close)
			if m.Err() == nil {
				t.Fatal("unreadable segment did not surface through Err")
			}
		})
	}
}

// TestMonitorConsumeAllocs: once the window is full and no new thread,
// object or clock width appears, a Monitor consuming records through its
// StampSink allocates nothing per record. Detections are output the
// monitor keeps by design, so each run drops the batch's detections again,
// keeping the retained list from growing.
func TestMonitorConsumeAllocs(t *testing.T) {
	src, err := trace.Generate(trace.Uniform, trace.Config{Threads: 8, Objects: 8, Events: 4000}, rand.New(rand.NewSource(59)))
	if err != nil {
		t.Fatal(err)
	}
	from := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealEvery: 500}}))
	replayTrace(t, from, src, -1)
	recs := streamRecords(t, from)
	const prime = 2000
	if w := len(recs[prime].v); w != len(recs[len(recs)-1].v) || recs[prime].epoch != recs[len(recs)-1].epoch {
		t.Fatalf("clock still widening after %d events: width %d, final %d", prime, w, len(recs[len(recs)-1].v))
	}

	tr := mustOpen(t, "")
	m := tr.NewMonitor(MonitorPolicy{Window: 16})
	defer m.Close()
	m.WatchOrder("o1-after-o0",
		func(e event.Event) bool { return e.Object == 0 && e.Op == event.OpWrite },
		func(e event.Event) bool { return e.Object == 1 && e.Op == event.OpWrite },
	)
	sink := monitorSink{m}
	next := 0
	consume := func(n int) {
		m.mu.Lock()
		defer m.mu.Unlock()
		for ; n > 0; n-- {
			r := recs[next]
			if err := sink.ConsumeStamp(r.e, r.epoch, r.v); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	consume(prime)
	allocs := testing.AllocsPerRun(100, func() {
		consume(10)
		m.mu.Lock()
		m.findings = m.findings[:m.delivered]
		m.mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("steady-state consumption allocates %v per 10 records, want 0", allocs)
	}
	if st := m.Stats(); st.Consumed != next || st.Pairs == 0 {
		t.Fatalf("consumed %d of %d records, %d pairs: the stream should exercise the pair scanner", st.Consumed, next, st.Pairs)
	}
}
