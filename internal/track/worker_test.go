package track

import (
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
	"weak"

	"mixedclock/internal/clock"
	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/vfs"
)

// waitIdle blocks until the lifecycle workers are idle: no seal worker
// holds the gate (a closed tracker's Close holds it for good) and the pass
// worker has run every queued pass and stopped. Tests that inspect
// segments right after auto-sealing commits call it first; with the
// commits done, nothing is due once it returns.
func (t *Tracker) waitIdle() {
	t.lc.mu.Lock()
	for (t.sealGate.Load() && !t.closed.Load()) || t.lc.passBusy {
		t.lc.cond.Wait()
	}
	t.lc.mu.Unlock()
}

// parkWorker holds every seal-worker iteration of tr at its start until
// release is called; parked receives when an iteration parks. Install it
// before the first commit.
func parkWorker(tr *Tracker) (parked <-chan struct{}, release func()) {
	p := make(chan struct{}, 1)
	r := make(chan struct{})
	tr.workerPark = func() {
		select {
		case p <- struct{}{}:
		default:
		}
		<-r
	}
	return p, sync.OnceFunc(func() { close(r) })
}

// within runs fn on its own goroutine and reports whether it returned
// within d.
func within(d time.Duration, fn func()) (done <-chan struct{}, ok bool) {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		fn()
	}()
	select {
	case <-ch:
		return ch, true
	case <-time.After(d):
		return ch, false
	}
}

// settleGoroutines waits, for up to a few seconds, for the goroutine count
// to fall back to base, and reports the last count seen.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestCommitSignalsWorker: the commit that crosses a SealEvery boundary
// returns without sealing — the worker does, off the committing goroutine —
// and the segment appears once the parked worker is let go.
func TestCommitSignalsWorker(t *testing.T) {
	const every = 10
	tr := mustOpen(t, t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: every}}))
	parked, release := parkWorker(tr)
	defer release()
	th, o := tr.NewThread("t"), tr.NewObject("o")
	for i := 0; i < every; i++ {
		th.Write(o, nil)
	}
	<-parked
	if st := tr.Stats(); st.SealedEvents != 0 || st.Seals != 0 || st.Segments != 0 {
		t.Fatalf("the boundary commit sealed inline: %+v", st)
	}
	release()
	tr.waitIdle()
	segs := tr.Segments()
	if len(segs) != 1 || segs[0].FirstIndex != 0 || segs[0].Events != every {
		t.Fatalf("after the worker ran: segments %+v, want one of [0,%d)", segs, every)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressureBound: with the worker parked, commits run freely until
// the unsealed backlog reaches backpressureIntervals × SealEvery; the commit
// that reaches it blocks until the worker publishes, and the wait is
// counted. A degraded tracker never blocks.
func TestBackpressureBound(t *testing.T) {
	const every = 10
	const bound = backpressureIntervals * every
	t.Run("armed", func(t *testing.T) {
		tr := mustOpen(t, t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: every}}))
		_, release := parkWorker(tr)
		defer release()
		th, o := tr.NewThread("t"), tr.NewObject("o")
		if _, ok := within(10*time.Second, func() {
			for i := 0; i < bound-1; i++ {
				th.Write(o, nil)
			}
		}); !ok {
			t.Fatalf("commits blocked below the bound of %d unsealed events", bound)
		}
		if st := tr.Stats(); st.BackpressureWaits != 0 || st.SealedEvents != 0 {
			t.Fatalf("below the bound: %+v", st)
		}
		done, ok := within(50*time.Millisecond, func() { th.Write(o, nil) })
		if ok {
			t.Fatalf("the commit reaching %d unsealed events did not wait for the worker", bound)
		}
		release()
		<-done
		tr.waitIdle()
		st := tr.Stats()
		if st.BackpressureWaits != 1 || st.BackpressureNanos <= 0 {
			t.Fatalf("backpressure not counted: %+v", st)
		}
		if st.UnsealedMax != bound {
			t.Fatalf("UnsealedMax = %d, want %d", st.UnsealedMax, bound)
		}
		if st.SealedEvents != bound || st.Segments != backpressureIntervals {
			t.Fatalf("idle worker left %d sealed in %d segments, want %d in %d",
				st.SealedEvents, st.Segments, bound, backpressureIntervals)
		}
	})
	t.Run("degraded", func(t *testing.T) {
		fi := vfs.NewFaulty(vfs.OS)
		tr := mustOpen(t, t.TempDir(), WithStore(Store{
			Spill: SpillPolicy{SealEvery: every, Probe: time.Hour},
			FS:    fi,
		}))
		fi.Script(vfs.Rule{Ops: vfs.MutatingOps, Err: syscall.ENOSPC})
		th, o := tr.NewThread("t"), tr.NewObject("o")
		const total = 10 * bound
		if _, ok := within(10*time.Second, func() {
			for i := 0; i < total; i++ {
				th.Write(o, nil)
				// Once degraded, no commit may wait again.
				if tr.Health().Degraded {
					if w := tr.Stats().BackpressureWaits; w > 1 {
						t.Errorf("commit %d waited while degraded (%d waits)", i, w)
						return
					}
				}
			}
		}); !ok {
			t.Fatal("commits blocked on a degraded tracker")
		}
		tr.waitIdle()
		h := tr.Health()
		if !h.Degraded || !h.SealDisarmed || h.UnsealedEvents != total {
			t.Fatalf("health after failing seals: %+v", h)
		}
	})
}

// TestBackpressureCountsOnlyWaits: a commit that reaches backpressure but
// finds, on its re-check, the backlog already under the bound — or the
// tracker degraded or closed — does not wait, and is not counted.
func TestBackpressureCountsOnlyWaits(t *testing.T) {
	const every = 10
	tr := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealEvery: every}}))
	th, o := tr.NewThread("t"), tr.NewObject("o")
	for i := 0; i < every-1; i++ {
		th.Write(o, nil)
	}
	tr.backpressure(every) // under the bound
	tr.sealBroken.Store(true)
	tr.backpressure(1) // at the bound, but degraded
	tr.sealBroken.Store(false)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.backpressure(1) // at the bound, but closed
	if st := tr.Stats(); st.BackpressureWaits != 0 || st.BackpressureNanos != 0 {
		t.Fatalf("commits that never blocked were counted: %+v", st)
	}
}

// TestCloseCatchUpRunsPasses: the intervals Close seals because the worker
// had not reached them still get their compaction passes, so the segments
// Close leaves are those of inline seals, whatever the worker's lag. The
// worker here is held until Close has begun, and then finds nothing to do.
func TestCloseCatchUpRunsPasses(t *testing.T) {
	const every, total = 10, 30
	dir := t.TempDir()
	tr := mustOpen(t, dir, WithStore(Store{
		Spill:   SpillPolicy{SealEvery: every},
		Compact: CompactPolicy{MaxSegments: 1},
	}))
	tr.workerPark = func() {
		for !tr.closed.Load() {
			time.Sleep(time.Millisecond)
		}
	}
	th, o := tr.NewThread("t"), tr.NewObject("o")
	for i := 0; i < total; i++ {
		th.Write(o, nil)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := tr.Segments(); len(segs) != 1 || segs[0].FirstIndex != 0 || segs[0].Events != total {
		t.Fatalf("Close left segments %+v, want the catch-up seals merged into one of [0,%d)", segs, total)
	}
	if st := tr.Stats(); st.Seals != total/every {
		t.Fatalf("Close sealed %d intervals, want %d", st.Seals, total/every)
	}
}

// TestSealRacesClose: a Seal racing Close — one that passed its closed check
// before Close began — cannot start a compaction pass on the closed tracker:
// once Close has drained the passes no pass is queued, and no worker
// goroutine outlives the pair.
func TestSealRacesClose(t *testing.T) {
	const every = 4
	st := Store{Spill: SpillPolicy{SealEvery: every}, Compact: CompactPolicy{MaxSegments: 1}}
	t.Run("queue", func(t *testing.T) {
		tr := mustOpen(t, t.TempDir(), WithStore(st))
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		before := tr.lastTicket()
		if ticket := tr.queuePass(0, 0); ticket != before || tr.lastTicket() != before {
			t.Fatalf("a pass was queued on a closed tracker: ticket %d, queued %d before", ticket, before)
		}
		tr.lc.mu.Lock()
		busy := tr.lc.passBusy
		tr.lc.mu.Unlock()
		if busy {
			t.Fatal("a pass worker started on a closed tracker")
		}
	})
	t.Run("race", func(t *testing.T) {
		base := runtime.NumGoroutine()
		for round := 0; round < 20; round++ {
			tr, err := Open(t.TempDir(), WithStore(st))
			if err != nil {
				t.Fatal(err)
			}
			th, o := tr.NewThread("t"), tr.NewObject("o")
			for i := 0; i < 3*every+round%every; i++ {
				th.Write(o, nil)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = tr.Seal() // may lose the race and find the tracker closed
			}()
			if round%2 == 0 {
				runtime.Gosched()
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			closedAt := tr.lastTicket()
			wg.Wait()
			if q := tr.lastTicket(); q != closedAt {
				t.Fatalf("round %d: %d passes queued after Close returned", round, q-closedAt)
			}
			if n := settleGoroutines(base); n > base {
				t.Fatalf("round %d: %d goroutines after Close and Seal, %d before Open", round, n, base)
			}
		}
	})
}

// renameParkFS is vfs.OS, except that the first rename onto a name
// containing match parks until release is closed, announcing itself on
// parked first.
type renameParkFS struct {
	vfs.FS
	match           string
	parked, release chan struct{}
	once            sync.Once
}

func (p *renameParkFS) Rename(oldpath, newpath string) error {
	if filepath.Base(newpath) == p.match {
		p.once.Do(func() {
			close(p.parked)
			<-p.release
		})
	}
	return p.FS.Rename(oldpath, newpath)
}

// TestCloseRacesWorker: a Close that races an in-flight worker seal, or an
// in-flight compaction pass, waits them out. No record is lost — the
// reopened run replays every committed event with the stamps a tracker that
// never sealed assigns — and no worker goroutine outlives Close.
func TestCloseRacesWorker(t *testing.T) {
	const every, total = 10, 25
	merged := tlog.SegmentFileName(tlog.SegmentMeta{FirstIndex: 0, Count: 2 * every})
	for _, mode := range []string{"seal", "compaction"} {
		t.Run(mode, func(t *testing.T) {
			base := runtime.NumGoroutine()
			dir := t.TempDir()
			st := Store{Spill: SpillPolicy{SealEvery: every}}
			park := make(chan struct{})
			release := sync.OnceFunc(func() {})
			var parkFS *renameParkFS
			if mode == "compaction" {
				parkFS = &renameParkFS{FS: vfs.OS, match: merged, parked: park, release: make(chan struct{})}
				st.FS, st.Compact = parkFS, CompactPolicy{MaxSegments: 1}
				release = sync.OnceFunc(func() { close(parkFS.release) })
			}
			tr, err := Open(dir, WithStore(st))
			if err != nil {
				t.Fatal(err)
			}
			if mode == "seal" {
				hold := make(chan struct{})
				var once sync.Once
				tr.sealPark = func(int) {
					once.Do(func() {
						close(park)
						<-hold
					})
				}
				release = sync.OnceFunc(func() { close(hold) })
			}
			defer release()
			twin := mustOpen(t, "")
			th, o := tr.NewThread("t"), tr.NewObject("o")
			tth, to := twin.NewThread("t"), twin.NewObject("o")
			for i := 0; i < total; i++ {
				th.Do(o, event.Op(i%2), nil)
				tth.Do(to, event.Op(i%2), nil)
			}
			<-park
			closed, ok := within(20*time.Millisecond, func() {
				if err := tr.Close(); err != nil {
					t.Error(err)
				}
			})
			if ok {
				t.Fatalf("Close returned while a worker %s was in flight", mode)
			}
			release()
			<-closed
			if n := settleGoroutines(base); n > base {
				t.Fatalf("%d goroutines after Close, %d before Open", n, base)
			}

			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if ri := re.Recovery(); !ri.CleanClose || ri.Events != total {
				t.Fatalf("reopened run: %+v, want a clean close of %d events", ri, total)
			}
			_, got := re.Snapshot()
			_, want := twin.Snapshot()
			if len(got) != total {
				t.Fatalf("reopened run replays %d records, want %d", len(got), total)
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("record %d: %v after reopen, %v in memory", i, got[i], want[i])
				}
			}
			if mode == "compaction" {
				if segs := re.Segments(); len(segs) != 2 || segs[0].Events != 2*every {
					t.Fatalf("the raced compaction did not land: %+v", segs)
				}
			}
		})
	}
}

// TestIdleTrackerHoldsNoGoroutine: both workers exit once nothing is due,
// so a tracker dropped without Close holds no goroutine and is collected.
func TestIdleTrackerHoldsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	var wp weak.Pointer[Tracker]
	func() {
		tr, err := Open("", WithStore(Store{
			Spill:   SpillPolicy{SealEvery: 10},
			Compact: CompactPolicy{MaxSegments: 2},
		}))
		if err != nil {
			t.Fatal(err)
		}
		wp = weak.Make(tr)
		th, o := tr.NewThread("t"), tr.NewObject("o")
		for i := 0; i < 200; i++ {
			th.Write(o, nil)
		}
		tr.waitIdle()
		if st := tr.Stats(); st.SealedEvents != 200 || st.CompactionPasses == 0 {
			t.Fatalf("workers did not run: %+v", st)
		}
	}()
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines with the tracker idle, %d before Open", n, base)
	}
	for deadline := time.Now().Add(5 * time.Second); wp.Value() != nil; {
		if time.Now().After(deadline) {
			t.Fatal("an idle tracker dropped without Close was never collected")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerExitRace: goroutines commit across SealEvery boundaries while
// the seal worker keeps exiting and restarting (run under -race). Once the
// worker is idle every boundary is sealed exactly once, each interval as
// its own segment, and the history replays in full.
func TestWorkerExitRace(t *testing.T) {
	const every, workers, perWorker = 7, 4, 500
	tr := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealEvery: every}}))
	objs := []*Object{tr.NewObject("x"), tr.NewObject("y")}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := tr.NewThread("w")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				th.Do(objs[(w+i)%2], event.Op(i%2), nil)
				if i%50 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	tr.waitIdle()
	const n = workers * perWorker
	segs := tr.Segments()
	covered := 0
	for i, sg := range segs {
		if sg.FirstIndex != covered || sg.Events != every {
			t.Fatalf("segment %d is [%d,+%d), want [%d,+%d)", i, sg.FirstIndex, sg.Events, covered, every)
		}
		covered += sg.Events
	}
	if covered != n/every*every {
		t.Fatalf("idle worker sealed through %d, want every boundary up to %d", covered, n/every*every)
	}
	full, stamps := tr.Snapshot()
	if full.Len() != n || len(stamps) != n {
		t.Fatalf("snapshot has %d events, want %d", full.Len(), n)
	}
	if err := clock.Validate(full, stamps, "worker-exit-race"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}
