package track

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"mixedclock/internal/detect"
	"mixedclock/internal/event"
	"mixedclock/internal/trace"
)

// chunkSchedule splits a generated trace into maximal same-thread runs,
// further cut at random points (sizes 1..6) so batch boundaries land
// everywhere: mid-run, at thread changes, around single events. The same
// chunking drives both executors of the equivalence tests.
type chunkRun struct{ start, end int } // [start, end), all one thread

func chunkSchedule(src *event.Trace, rng *rand.Rand) []chunkRun {
	var chunks []chunkRun
	limit := 1 + rng.Intn(6)
	start := 0
	for i := 1; i <= src.Len(); i++ {
		if i == src.Len() || src.At(i).Thread != src.At(start).Thread || i-start >= limit {
			chunks = append(chunks, chunkRun{start, i})
			start = i
			limit = 1 + rng.Intn(6)
		}
	}
	return chunks
}

// replayDo is the reference executor: the plain per-event Do loop,
// compacting before event index compactAt (if >= 0).
func replayDo(t *testing.T, tr *Tracker, src *event.Trace, compactAt int) []Stamped {
	t.Helper()
	threads := make([]*Thread, src.Threads())
	for i := range threads {
		threads[i] = tr.NewThread(fmt.Sprintf("t%d", i))
	}
	objects := make([]*Object, src.Objects())
	for i := range objects {
		objects[i] = tr.NewObject(fmt.Sprintf("o%d", i))
	}
	out := make([]Stamped, 0, src.Len())
	for i := 0; i < src.Len(); i++ {
		if i == compactAt {
			if _, _, err := tr.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		e := src.At(i)
		out = append(out, threads[e.Thread].Do(objects[e.Object], e.Op, nil))
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// replayBatched commits the same trace through the batched path, one chunk
// per commit call. Single-object chunks go through DoBatch directly, mixed
// chunks through the Batch builder, so both entry points are exercised.
func replayBatched(t *testing.T, tr *Tracker, src *event.Trace, chunks []chunkRun, compactAt int) []Stamped {
	t.Helper()
	threads := make([]*Thread, src.Threads())
	for i := range threads {
		threads[i] = tr.NewThread(fmt.Sprintf("t%d", i))
	}
	objects := make([]*Object, src.Objects())
	for i := range objects {
		objects[i] = tr.NewObject(fmt.Sprintf("o%d", i))
	}
	out := make([]Stamped, 0, src.Len())
	for _, c := range chunks {
		if c.start == compactAt {
			if _, _, err := tr.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		th := threads[src.At(c.start).Thread]
		single := true
		for i := c.start + 1; i < c.end; i++ {
			if src.At(i).Object != src.At(c.start).Object {
				single = false
				break
			}
		}
		if single {
			ops := make([]event.Op, 0, c.end-c.start)
			for i := c.start; i < c.end; i++ {
				ops = append(ops, src.At(i).Op)
			}
			out = append(out, th.DoBatch(objects[src.At(c.start).Object], ops)...)
		} else {
			b := th.NewBatch()
			for i := c.start; i < c.end; i++ {
				b.Add(objects[src.At(i).Object], src.At(i).Op)
			}
			out = append(out, b.Commit()...)
		}
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchMatchesDo is the batching equivalence property: for every
// generator workload, with and without sealing/spilling and a mid-trace
// compaction, committing a schedule through DoBatch/Batch
// must produce (event, epoch, stamp)-identical results to the equivalent
// loop of Do calls. Identical events AND identical vectors: batching is an
// amortization of synchronization cost, never a semantic knob.
func TestBatchMatchesDo(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, wl := range trace.Workloads() {
		src, err := trace.Generate(wl, trace.Config{Threads: 6, Objects: 6, Events: 240, ReadFraction: 0.3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		chunks := chunkSchedule(src, rng)
		// Compact at the chunk boundary nearest the middle, in both replays.
		compactAt := -1
		for _, c := range chunks {
			if c.start >= src.Len()/2 {
				compactAt = c.start
				break
			}
		}
		for _, mode := range []string{"plain", "sealed"} {
			t.Run(fmt.Sprintf("%v/flat/%s", wl, mode), func(t *testing.T) {
				open := func() *Tracker {
					if mode == "sealed" {
						return mustOpen(t, t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: 75}}))
					}
					return mustOpen(t, "")
				}
				want := replayDo(t, open(), src, compactAt)
				got := replayBatched(t, open(), src, chunks, compactAt)
				if len(got) != len(want) {
					t.Fatalf("batched replay produced %d stamps, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i].Event != want[i].Event {
						t.Fatalf("event %d: batched %+v, Do %+v", i, got[i].Event, want[i].Event)
					}
					if got[i].Epoch != want[i].Epoch {
						t.Fatalf("event %d: batched epoch %d, Do epoch %d", i, got[i].Epoch, want[i].Epoch)
					}
					if gv, wv := got[i].Vector(), want[i].Vector(); !gv.Equal(wv) {
						t.Fatalf("event %d: batched stamp %v, Do stamp %v", i, gv, wv)
					}
				}
			})
		}
	}
}

// TestBatchRacesSeal hammers the tracker with concurrent batched commits
// while the main goroutine seals and compacts with no external
// synchronization. It pins the batch atomicity guarantees under the real
// barriers: every batch's stamps share one epoch (a Compact lands entirely
// before or after a batch, never inside), indices within a batch are
// contiguous, program order holds across batches, and the recorded
// computation remains a valid clocked trace per epoch. Run under -race.
func TestBatchRacesSeal(t *testing.T) {
	tr := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealEvery: 64}}))
	const nWorkers, nObjects, batches, batchLen = 8, 3, 40, 8
	objects := make([]*Object, nObjects)
	for i := range objects {
		objects[i] = tr.NewObject("obj")
	}
	recorded := make([][][]Stamped, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		th := tr.NewThread("worker")
		wg.Add(1)
		go func(th *Thread, w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				var out []Stamped
				if i%2 == 0 {
					ops := make([]event.Op, batchLen)
					for k := range ops {
						if k%3 == 0 {
							ops[k] = event.OpRead
						}
					}
					// DoBatch's result is the thread's buffer, reused by
					// its next DoBatch: keep a copy.
					out = slices.Clone(th.DoBatch(objects[(w+i)%nObjects], ops))
				} else {
					b := th.NewBatch()
					for k := 0; k < batchLen; k++ {
						b.Write(objects[(w+i+k)%nObjects])
					}
					out = b.Commit()
				}
				recorded[w] = append(recorded[w], out)
			}
		}(th, w)
	}
	for c := 0; c < 6; c++ {
		if err := tr.Seal(); err != nil {
			t.Error(err)
			break
		}
		if _, _, err := tr.Compact(); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Events(), nWorkers*batches*batchLen; got != want {
		t.Fatalf("Events = %d, want %d", got, want)
	}
	for w, batchStamps := range recorded {
		prevIdx := -1
		for bi, out := range batchStamps {
			for k, s := range out {
				// One epoch per DoBatch call; contiguous indices within it.
				if s.Epoch != out[0].Epoch && bi%2 == 0 {
					t.Fatalf("worker %d batch %d straddles epochs %d and %d", w, bi, out[0].Epoch, s.Epoch)
				}
				if bi%2 == 0 && k > 0 && s.Event.Index != out[k-1].Event.Index+1 {
					t.Fatalf("worker %d batch %d indices not contiguous: %d then %d",
						w, bi, out[k-1].Event.Index, s.Event.Index)
				}
				if s.Event.Index <= prevIdx {
					t.Fatalf("worker %d program order lost: index %d after %d", w, s.Event.Index, prevIdx)
				}
				prevIdx = s.Event.Index
				if got := tr.EpochOf(s.Event.Index); got != s.Epoch {
					t.Fatalf("worker %d event %d stamped epoch %d, recorded in %d", w, s.Event.Index, s.Epoch, got)
				}
			}
		}
	}
	validateEpochs(t, tr)
}

// TestBatchOverlapsMonitor runs batched commits, auto-seals, and a live
// Monitor concurrently: the monitor consumes sealed history through the
// barrier-free segment list while batches keep committing. After a Sync the
// monitor must have consumed exactly the recorded computation, with a
// census matching the final snapshot. Run under -race.
func TestBatchOverlapsMonitor(t *testing.T) {
	tr := mustOpen(t, t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: 50}}))
	m := tr.NewMonitor(MonitorPolicy{})
	defer m.Close()
	const nWorkers, nObjects, batches, batchLen = 6, 3, 30, 8
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
			for i := 0; i < batches; i++ {
				ops := make([]event.Op, batchLen)
				th.DoBatch(objects[(w+i)%nObjects], ops)
			}
		}(th, w)
	}
	wg.Wait()
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	full, _ := tr.Snapshot()
	stats := m.Stats()
	if stats.Consumed != full.Len() {
		t.Fatalf("monitor consumed %d of %d events", stats.Consumed, full.Len())
	}
	if want := detect.TakeCensus(full); stats.Census != want || stats.CensusSkipped != 0 {
		t.Fatalf("census %+v (skipped %d), want %+v", stats.Census, stats.CensusSkipped, want)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleDoesNotBarrierCommits is the acceptance proof that segment
// compaction and retention no longer stop the world: both run to completion
// — list swap, catalog publication, file retirement — while another
// goroutine holds a world READ lock for the whole duration, exactly as an
// in-flight commit would. Before the epoch-based reclaimer, both paths
// swapped their lists under world.Lock and this test would deadlock.
func TestLifecycleDoesNotBarrierCommits(t *testing.T) {
	dir := t.TempDir()
	tr := buildEpochs(t, dir)
	defer tr.Close()

	tr.world.RLock(0) // a commit is "in flight" for the whole pass
	done := make(chan error, 1)
	go func() {
		if _, err := tr.CompactSegments(CompactPolicy{}); err != nil {
			done <- err
			return
		}
		n, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1})
		if err == nil && n == 0 {
			err = fmt.Errorf("retention pass retired nothing")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			tr.world.RUnlock(0)
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		tr.world.RUnlock(0)
		t.Fatal("lifecycle pass blocked on the world write lock while a read lock was held")
	}
	tr.world.RUnlock(0)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	// The pass really happened: the floor moved.
	if tr.RetainedEvents() == 0 {
		t.Fatal("retention floor never published")
	}
}

// TestPinHoldsRetirement pins the reclaimer's contract end to end: a pinned
// reader (a sealed replay) holds retired spill files in limbo — still on
// disk, still readable — and the files are deleted only after the pin is
// released and a reclaim pass runs.
func TestPinHoldsRetirement(t *testing.T) {
	dir := t.TempDir()
	tr := buildEpochs(t, dir)
	defer tr.Close()
	epoch := tr.Epoch()
	var graduated []string
	for _, sg := range tr.Segments() {
		if sg.Epoch < epoch {
			graduated = append(graduated, sg.Path)
		}
	}
	if len(graduated) == 0 {
		t.Fatal("workload produced no graduated segments")
	}

	rec := tr.reclaim.register()
	rec.pin(&tr.reclaim)
	n, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(graduated) {
		t.Fatalf("retired %d segments, want %d", n, len(graduated))
	}
	// Retired, but the pin holds every deletion in limbo.
	if got := tr.reclaim.pending(); got < len(graduated) {
		t.Fatalf("%d limbo entries with a pinned reader, want >= %d", got, len(graduated))
	}
	for _, p := range graduated {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("retired file %s deleted under a pinned reader: %v", p, err)
		}
	}
	// Release the pin: the next reclaim pass frees everything.
	rec.unpin()
	tr.reclaim.unregister(rec)
	tr.reclaim.reclaim()
	if got := tr.reclaim.pending(); got != 0 {
		t.Fatalf("%d limbo entries after unpin+reclaim, want 0", got)
	}
	for _, p := range graduated {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("retired file %s still present after unpin: %v", p, err)
		}
	}
}

// TestReclaimerQuiescent pins the fast path: with no reader pinned, retire
// frees immediately — the limbo list never grows on a quiescent tracker.
func TestReclaimerQuiescent(t *testing.T) {
	var rc reclaimer
	rc.init()
	r := rc.register()
	defer rc.unregister(r)
	freed := 0
	rc.retire(func() { freed++ })
	if freed != 1 || rc.pending() != 0 {
		t.Fatalf("quiescent retire: freed=%d pending=%d, want 1 and 0", freed, rc.pending())
	}
	// Deferred retirement waits for an explicit pass even when quiescent.
	rc.retireDeferred(func() { freed++ })
	if freed != 1 || rc.pending() != 1 {
		t.Fatalf("deferred retire ran early: freed=%d pending=%d", freed, rc.pending())
	}
	rc.reclaim()
	if freed != 2 || rc.pending() != 0 {
		t.Fatalf("reclaim pass: freed=%d pending=%d, want 2 and 0", freed, rc.pending())
	}
}

// TestDoBatchReusesItsBuffer: DoBatch returns the thread's own buffer, so
// after the first call a steady stream of one-object batches allocates
// nothing per call (a stamp is a value, with no per-event cell), and the
// buffer holds the latest batch's stamps.
func TestDoBatchReusesItsBuffer(t *testing.T) {
	tr := mustOpen(t, "")
	defer tr.Close()
	th, o := tr.NewThread("w"), tr.NewObject("o")
	ops := []event.Op{event.OpWrite}
	first := th.DoBatch(o, ops)
	if allocs := testing.AllocsPerRun(100, func() { th.DoBatch(o, ops) }); allocs != 0 {
		t.Fatalf("DoBatch allocated %v times per call", allocs)
	}
	out := th.DoBatch(o, ops)
	if &out[0] != &first[0] {
		t.Fatalf("DoBatch returned a fresh buffer")
	}
	if got := out[0].Event.Index; got != 102 {
		t.Fatalf("last batch's stamp is event %d, want 102", got)
	}
}
