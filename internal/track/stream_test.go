package track

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/trace"
	"mixedclock/internal/vclock"
)

// replayTrace drives a generated trace through a live tracker, one
// registered Thread per trace thread, in trace order. compactAt < 0 means
// never compact.
func replayTrace(t *testing.T, tr *Tracker, src *event.Trace, compactAt int) {
	t.Helper()
	threads := make([]*Thread, src.Threads())
	for i := range threads {
		threads[i] = tr.NewThread(fmt.Sprintf("t%d", i))
	}
	objects := make([]*Object, src.Objects())
	for i := range objects {
		objects[i] = tr.NewObject(fmt.Sprintf("o%d", i))
	}
	for i := 0; i < src.Len(); i++ {
		if i == compactAt {
			if _, _, err := tr.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		e := src.At(i)
		threads[e.Thread].Do(objects[e.Object], e.Op, nil)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotToMatchesWriteAllDelta is the pipeline's equivalence property:
// for every generator workload, with and without sealing/spilling/compaction
// in the middle, the streaming SnapshotTo must produce
// byte-identical output to materializing Snapshot() and writing it with
// tlog.WriteAllDelta. Bytes, not just decoded equality: the stream path re-
// encodes sealed segments record by record, and any drift in sync-point or
// diff behaviour would silently fork the wire format.
func TestSnapshotToMatchesWriteAllDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, wl := range trace.Workloads() {
		src, err := trace.Generate(wl, trace.Config{Threads: 8, Objects: 8, Events: 320}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"plain", "sealed"} {
			t.Run(fmt.Sprintf("%v/flat/%s", wl, mode), func(t *testing.T) {
				var opts []Option
				dir, compactAt := "", -1
				if mode == "sealed" {
					dir = t.TempDir()
					opts = append(opts, WithStore(Store{Spill: SpillPolicy{SealEvery: 75}}))
					compactAt = src.Len() / 2
				}
				tr := mustOpen(t, dir, opts...)
				replayTrace(t, tr, src, compactAt)
				tr.waitIdle()

				full, stamps := tr.Snapshot()
				if full.Len() != src.Len() {
					t.Fatalf("snapshot has %d events, want %d", full.Len(), src.Len())
				}
				var want bytes.Buffer
				if err := tlog.WriteAllDelta(&want, full, stamps); err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := tr.SnapshotTo(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want.Bytes(), got.Bytes()) {
					t.Fatalf("SnapshotTo wrote %d bytes differing from materialize+WriteAllDelta's %d",
						got.Len(), want.Len())
				}
				// The log must decode back to the exact snapshot.
				decTr, decStamps, err := tlog.ReadAll(&got)
				if err != nil {
					t.Fatal(err)
				}
				if decTr.Len() != full.Len() {
					t.Fatalf("decoded %d events, want %d", decTr.Len(), full.Len())
				}
				for i := 0; i < full.Len(); i++ {
					if !decStamps[i].Equal(stamps[i]) {
						t.Fatalf("stamp %d: decoded %v, snapshot %v", i, decStamps[i], stamps[i])
					}
				}
				if err := tr.Err(); err != nil {
					t.Fatal(err)
				}
				validateEpochs(t, tr)
			})
		}
	}
}

// TestSealPreservesSemantics pins that sealing is invisible: two identical
// replays, one sealing aggressively and one never, must agree on every
// stamp, every width, every epoch boundary.
func TestSealPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src, err := trace.Generate(trace.HotSet, trace.Config{Threads: 6, Objects: 6, Events: 260}, rng)
	if err != nil {
		t.Fatal(err)
	}
	plain := mustOpen(t, "")
	replayTrace(t, plain, src, 130)
	sealing := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealEvery: 40}}))
	replayTrace(t, sealing, src, 130)
	if err := sealing.Seal(); err != nil {
		t.Fatal(err)
	}
	if len(sealing.Segments()) < 2 {
		t.Fatalf("sealing tracker produced %d segments", len(sealing.Segments()))
	}

	pTr, pStamps := plain.Snapshot()
	sTr, sStamps := sealing.Snapshot()
	if pTr.Len() != sTr.Len() {
		t.Fatalf("event counts diverge: %d vs %d", pTr.Len(), sTr.Len())
	}
	for i := 0; i < pTr.Len(); i++ {
		if pTr.At(i) != sTr.At(i) {
			t.Fatalf("event %d: %+v vs %+v", i, pTr.At(i), sTr.At(i))
		}
		if !pStamps[i].Equal(sStamps[i]) || len(pStamps[i]) != len(sStamps[i]) {
			t.Fatalf("stamp %d: %v (width %d) vs %v (width %d)",
				i, pStamps[i], len(pStamps[i]), sStamps[i], len(sStamps[i]))
		}
	}
	if got, want := sealing.EpochStarts(), plain.EpochStarts(); len(got) != len(want) || got[1] != want[1] {
		t.Fatalf("epoch starts diverge: %v vs %v", got, want)
	}
}

// TestSpillBoundsAndRestores drives a spilling tracker past several seal
// points and checks the contract end to end: segments land as files, the
// full computation (including spilled history) snapshots back intact and
// valid, and a lazy Stamped.Vector of a long-sealed event reads its spill
// file.
func TestSpillBoundsAndRestores(t *testing.T) {
	dir := t.TempDir()
	tr := mustOpen(t, dir, WithStore(Store{Spill: SpillPolicy{SealEvery: 50}}))
	a := tr.NewThread("a")
	b := tr.NewThread("b")
	x := tr.NewObject("x")
	y := tr.NewObject("y")
	var early Stamped
	const total = 400
	for i := 0; i < total/2; i++ {
		s := a.Write(x, nil)
		if i == 3 {
			early = s // will be sealed and spilled long before it's read
		}
		if i%3 == 0 {
			b.Write(x, nil)
		} else {
			b.Write(y, nil)
		}
	}
	tr.waitIdle()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	segs := tr.Segments()
	if len(segs) < 4 {
		t.Fatalf("only %d segments after %d events at SealEvery=50", len(segs), total)
	}
	var covered int
	for i, sg := range segs {
		if sg.Path == "" {
			t.Fatalf("segment %d not spilled: %+v", i, sg)
		}
		if fi, err := os.Stat(sg.Path); err != nil || fi.Size() != sg.Bytes {
			t.Fatalf("segment file %q: err=%v", sg.Path, err)
		}
		if sg.FirstIndex != covered {
			t.Fatalf("segment %d starts at %d, want %d", i, sg.FirstIndex, covered)
		}
		covered += sg.Events
	}
	if covered < total-100 {
		t.Fatalf("sealed only %d of %d events", covered, total)
	}

	full, stamps := tr.Snapshot()
	if full.Len() != total {
		t.Fatalf("snapshot restored %d events, want %d", full.Len(), total)
	}
	if err := clock.Validate(full, stamps, "spilled"); err != nil {
		t.Fatal(err)
	}
	if got := early.Vector(); !got.Equal(stamps[early.Event.Index]) {
		t.Fatalf("lazy stamp of spilled event %d = %v, want %v",
			early.Event.Index, got, stamps[early.Event.Index])
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	// Destroy the spill files: bulk reads must surface the loss through
	// Err rather than panicking or fabricating history.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if tr2, _ := tr.Snapshot(); tr2.Len() >= total {
		t.Fatalf("snapshot of destroyed spill dir still returned %d events", tr2.Len())
	}
	if err := tr.Err(); err == nil {
		t.Fatal("destroyed spill dir did not surface through Err")
	}
}

// TestAutoSealFailureDisarms pins the broken-storage behaviour: a failing
// spill surfaces once through Err and disarms auto-sealing (so commits stop
// paying a barrier + failing I/O each), history stays readable from memory,
// and a later successful explicit Seal re-arms the policy.
func TestAutoSealFailureDisarms(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	// A regular file where the spill directory should be: MkdirAll fails.
	if err := os.WriteFile(blocked, []byte("in the way"), 0o666); err != nil {
		t.Fatal(err)
	}
	tr := mustOpen(t, blocked, WithStore(Store{Spill: SpillPolicy{SealEvery: 10}}))
	th := tr.NewThread("t")
	o := tr.NewObject("o")
	for i := 0; i < 50; i++ {
		th.Write(o, nil)
	}
	tr.waitIdle()
	if err := tr.Err(); err == nil {
		t.Fatal("failing spill did not surface through Err")
	}
	if !tr.sealBroken.Load() {
		t.Fatal("failing auto-seal did not disarm the policy")
	}
	if len(tr.Segments()) != 0 {
		t.Fatalf("segments appeared despite failing spill: %+v", tr.Segments())
	}
	// History is intact in memory.
	full, stamps := tr.Snapshot()
	if full.Len() != 50 {
		t.Fatalf("snapshot has %d events, want 50", full.Len())
	}
	if err := clock.Validate(full, stamps, "after-failed-seal"); err != nil {
		t.Fatal(err)
	}
	// Repair the storage: an explicit Seal succeeds and re-arms.
	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if tr.sealBroken.Load() {
		t.Fatal("successful Seal did not re-arm auto-sealing")
	}
	for i := 0; i < 30; i++ {
		th.Write(o, nil)
	}
	tr.waitIdle()
	if segs := tr.Segments(); len(segs) < 2 {
		t.Fatalf("auto-sealing did not resume after repair: %+v", segs)
	}
}

// TestSealedLazyStamp pins the stampAt path through an in-memory segment:
// a stamp never materialized before Compact must come back exactly as the
// merged table would have had it, width included.
func TestSealedLazyStamp(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("t")
	o1 := tr.NewObject("o1")
	o2 := tr.NewObject("o2")
	var collected []Stamped
	for i := 0; i < 20; i++ {
		collected = append(collected, th.Write([]*Object{o1, o2}[i%2], nil))
	}
	_, stamps := tr.Snapshot() // materialize the reference table first
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	if segs := tr.Segments(); len(segs) != 1 || segs[0].Path != "" || segs[0].Events != 20 {
		t.Fatalf("Segments after Compact = %+v", segs)
	}
	for i, s := range collected {
		got := s.Vector() // first materialization: replays the sealed segment
		if !got.Equal(stamps[i]) || len(got) != len(stamps[i]) {
			t.Fatalf("sealed stamp %d = %v (width %d), want %v (width %d)",
				i, got, len(got), stamps[i], len(stamps[i]))
		}
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// streamCollector is a cloning StampSink used by the race tests.
type streamCollector struct {
	events []event.Event
	epochs []int
	stamps []vclock.Vector
}

func (c *streamCollector) ConsumeStamp(e event.Event, epoch int, v vclock.Vector) error {
	c.events = append(c.events, e)
	c.epochs = append(c.epochs, epoch)
	c.stamps = append(c.stamps, v.Clone())
	return nil
}

// TestStreamRacesCompact hammers the tracker from worker goroutines while
// the main goroutine alternates Compact (which seals) and Stream, with no
// synchronization beyond the tracker's own barriers — the streaming
// counterpart of TestCompactRacesDo, run under -race and -count=3 in CI.
// Every streamed snapshot must be a consistent prefix: dense indices from
// zero, epochs non-decreasing, and each stamp identical to what the final
// materialized history records for that index.
func TestStreamRacesCompact(t *testing.T) {
	tr := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealEvery: 64}}))
	const nWorkers, nObjects, opsPer, rounds = 8, 5, 300, 6
	objects := make([]*Object, nObjects)
	for i := range objects {
		objects[i] = tr.NewObject("obj")
	}
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		th := tr.NewThread("worker")
		wg.Add(1)
		go func(th *Thread, w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				th.Write(objects[(w+i)%nObjects], nil)
			}
		}(th, w)
	}
	var streams []*streamCollector
	for r := 0; r < rounds; r++ {
		if _, _, err := tr.Compact(); err != nil {
			t.Error(err)
			break
		}
		c := &streamCollector{}
		if err := tr.Stream(c); err != nil {
			t.Error(err)
			break
		}
		streams = append(streams, c)
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	full, stamps := tr.Snapshot()
	if full.Len() != nWorkers*opsPer {
		t.Fatalf("final snapshot has %d events, want %d", full.Len(), nWorkers*opsPer)
	}
	for si, c := range streams {
		for i, e := range c.events {
			if e.Index != i {
				t.Fatalf("stream %d: record %d has index %d (not dense)", si, i, e.Index)
			}
			if i > 0 && c.epochs[i] < c.epochs[i-1] {
				t.Fatalf("stream %d: epochs went backwards at record %d", si, i)
			}
			if full.At(i).Thread != e.Thread || full.At(i).Object != e.Object {
				t.Fatalf("stream %d: record %d is %+v, final history has %+v", si, i, e, full.At(i))
			}
			if !c.stamps[i].Equal(stamps[i]) {
				t.Fatalf("stream %d: stamp %d = %v, final history has %v", si, i, c.stamps[i], stamps[i])
			}
			if got := tr.EpochOf(i); got != c.epochs[i] {
				t.Fatalf("stream %d: record %d streamed in epoch %d, recorded in %d",
					si, i, c.epochs[i], got)
			}
		}
	}
	validateEpochs(t, tr)
}

// TestStreamWhileSealing overlaps Stream's unlocked phase with concurrent
// auto-sealing: phase 2 must pick up whatever sealed mid-stream without
// dropping or duplicating records.
func TestStreamWhileSealing(t *testing.T) {
	tr := mustOpen(t, t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: 32}}))
	o := tr.NewObject("o")
	done := make(chan struct{})
	go func() {
		defer close(done)
		th := tr.NewThread("w")
		for i := 0; i < 2000; i++ {
			th.Write(o, nil)
		}
	}()
	for i := 0; i < 10; i++ {
		c := &streamCollector{}
		if err := tr.Stream(c); err != nil {
			t.Fatal(err)
		}
		for j, e := range c.events {
			if e.Index != j {
				t.Fatalf("stream %d: record %d has index %d", i, j, e.Index)
			}
		}
	}
	<-done
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	full, stamps := tr.Snapshot()
	if full.Len() != 2000 {
		t.Fatalf("final snapshot has %d events", full.Len())
	}
	if err := clock.Validate(full, stamps, "stream-while-sealing"); err != nil {
		t.Fatal(err)
	}
}

// reuseSink is a StampSink that, on the first tail record it receives,
// seals the very generation the stream is replaying, commits, and seals
// again — the second seal's barrier hands the thread whatever spare
// buffers the first one recycled — then commits into those. It keeps a
// copy of every stamp it is given.
type reuseSink struct {
	tr      *Tracker
	th      *Thread
	o       *Object
	stamps  []vclock.Vector
	reentry bool
}

func (s *reuseSink) ConsumeStamp(_ event.Event, _ int, v vclock.Vector) error {
	s.stamps = append(s.stamps, v.Clone())
	if s.reentry {
		return nil
	}
	s.reentry = true
	for round := 0; round < 2; round++ {
		if err := s.tr.Seal(); err != nil {
			return err
		}
		for i := 0; i < 300; i++ {
			s.th.Write(s.o, nil)
		}
	}
	return nil
}

// TestStreamHoldsRecycledBuffers pins the contract that lets a seal hand
// consumed buffers back to their threads: a Stream pins the reclaimer
// across its tail replay, so a generation it is replaying keeps its
// buffers even when a seal consumes it mid-replay and the thread commits
// on through a later swap. Without the pin the thread would write its next
// records into the buffer being replayed.
func TestStreamHoldsRecycledBuffers(t *testing.T) {
	tr := mustOpen(t, "")
	th, o := tr.NewThread("w"), tr.NewObject("o")
	for i := 0; i < 200; i++ {
		th.Write(o, nil)
	}
	_, want := tr.Snapshot()
	sink := &reuseSink{tr: tr, th: th, o: o}
	if err := tr.Stream(sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.stamps) != 200 {
		t.Fatalf("streamed %d records, want 200", len(sink.stamps))
	}
	for i, v := range sink.stamps {
		if !v.Equal(want[i]) {
			t.Fatalf("streamed stamp %d = %v, want %v", i, v, want[i])
		}
	}
	full, stamps := tr.Snapshot()
	if full.Len() != 800 {
		t.Fatalf("final snapshot has %d events, want 800", full.Len())
	}
	if err := clock.Validate(full, stamps, "stream-holds-recycled-buffers"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}
