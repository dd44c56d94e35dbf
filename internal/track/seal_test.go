package track

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mixedclock/internal/clock"
	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/trace"
	"mixedclock/internal/vclock"
	"mixedclock/internal/vfs"
)

// parkFS is vfs.OS, except that the first write into a segment temp file
// parks until release is closed, announcing itself on parked first. It
// holds a seal mid-spill for as long as a test needs.
type parkFS struct {
	vfs.FS
	parked, release chan struct{}
	once            sync.Once
}

func newParkFS() *parkFS {
	return &parkFS{FS: vfs.OS, parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	f, err := p.FS.CreateTemp(dir, pattern)
	if err != nil || !strings.HasPrefix(pattern, ".seg-") {
		return f, err
	}
	return &parkFile{File: f, fs: p}, nil
}

type parkFile struct {
	vfs.File
	fs *parkFS
}

func (f *parkFile) Write(b []byte) (int, error) {
	f.fs.once.Do(func() {
		close(f.fs.parked)
		<-f.fs.release
	})
	return f.File.Write(b)
}

// TestSealDoesNotBarrierCommits is the acceptance proof that a seal encodes
// and spills outside the world barrier: with a Seal parked inside its
// segment write, a commit on another goroutine completes, as do a Snapshot
// and a lazy stamp of a record the parked seal is writing. Before the split
// seal, Seal held the world write lock across the write and the commit
// would block until the spill finished.
func TestSealDoesNotBarrierCommits(t *testing.T) {
	fsys := newParkFS()
	tr := mustOpen(t, t.TempDir(), WithStore(Store{FS: fsys}))
	a, o := tr.NewThread("a"), tr.NewObject("o")
	var first []Stamped
	for i := 0; i < 100; i++ {
		first = append(first, a.Write(o, nil))
	}
	sealed := make(chan error, 1)
	go func() { sealed <- tr.Seal() }()
	select {
	case <-fsys.parked:
	case err := <-sealed:
		t.Fatalf("Seal returned (%v) without writing a segment", err)
	case <-time.After(10 * time.Second):
		t.Fatal("Seal never reached its segment write")
	}

	committed := make(chan Stamped, 1)
	go func() { committed <- tr.NewThread("b").Write(o, nil) }()
	var late Stamped
	select {
	case late = <-committed:
	case <-time.After(10 * time.Second):
		close(fsys.release)
		t.Fatal("a commit blocked while a seal was mid-spill")
	}
	// Readers work mid-spill too: the seal is not published yet, so the
	// frozen records are still tail records.
	full, stamps := tr.Snapshot()
	if full.Len() != 101 {
		close(fsys.release)
		t.Fatalf("mid-spill snapshot has %d events, want 101", full.Len())
	}
	if got := first[50].Vector(); !got.Equal(stamps[50]) {
		close(fsys.release)
		t.Fatalf("mid-spill lazy stamp 50 = %v, want %v", got, stamps[50])
	}

	close(fsys.release)
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}
	if segs := tr.Segments(); len(segs) != 1 || segs[0].FirstIndex != 0 || segs[0].Events != 100 {
		t.Fatalf("segments after the seal = %+v, want one of events [0,100)", segs)
	}
	if got := tr.Stats().SealedEvents; got != 100 {
		t.Fatalf("sealed %d events, want 100 (the late commit stays in the tail)", got)
	}
	if !first[99].HappenedBefore(late) {
		t.Fatal("the sealed last write does not happen before the late commit on the same object")
	}
	full, stamps = tr.Snapshot()
	if err := clock.Validate(full, stamps, "seal-mid-spill"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSealMergeOffBarrier is the acceptance proof that a seal's first
// barrier only swaps the per-thread buffers: with a Seal parked right
// after that barrier — its records swapped into a generation nobody has
// woven yet — a commit on another goroutine completes, and a lazy stamp of
// a swapped record (first round) and a Snapshot (second round), each of
// which has to weave the generation itself, equal a twin tracker's that
// never seals.
func TestSealMergeOffBarrier(t *testing.T) {
	tr, twin := mustOpen(t, ""), mustOpen(t, "")
	parked, release := make(chan int), make(chan struct{})
	tr.sealPark = func(upTo int) {
		parked <- upTo
		<-release
	}
	var threads, twinThreads []*Thread
	var objects, twinObjects []*Object
	for i := 0; i < 3; i++ {
		threads, twinThreads = append(threads, tr.NewThread("t")), append(twinThreads, twin.NewThread("t"))
		objects, twinObjects = append(objects, tr.NewObject("o")), append(twinObjects, twin.NewObject("o"))
	}
	var stamps []Stamped
	commit := func(i int) Stamped {
		th, o, op := i%3, (i*7)%3, event.Op(i%2)
		twinThreads[th].Do(twinObjects[o], op, nil)
		return threads[th].Do(objects[o], op, nil)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 150; i++ {
			stamps = append(stamps, commit(len(stamps)))
		}
		release = make(chan struct{})
		sealed := make(chan error, 1)
		go func() { sealed <- tr.Seal() }()
		var upTo int
		select {
		case upTo = <-parked:
		case err := <-sealed:
			t.Fatalf("round %d: Seal returned (%v) without parking", round, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Seal never reached its park point", round)
		}
		if upTo != len(stamps) {
			close(release)
			t.Fatalf("round %d: seal cut at %d, want %d", round, upTo, len(stamps))
		}
		if woven := int(tr.woven.Load()); woven >= upTo {
			close(release)
			t.Fatalf("round %d: records below %d already woven at the park point (woven to %d)", round, upTo, woven)
		}
		// A commit is not held up by the parked seal...
		committed := make(chan Stamped, 1)
		go func() { committed <- commit(len(stamps)) }()
		select {
		case s := <-committed:
			stamps = append(stamps, s)
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatalf("round %d: a commit blocked while a seal was parked after its swap", round)
		}
		// ...and readers weave the swapped generation themselves.
		_, want := twin.Snapshot()
		if round == 0 {
			i := upTo - 40
			if got := stamps[i].Vector(); !got.Equal(want[i]) || len(got) != len(want[i]) {
				close(release)
				t.Fatalf("lazy stamp %d of a swapped record = %v, twin has %v", i, got, want[i])
			}
		} else {
			full, got := tr.Snapshot()
			if full.Len() != len(want) {
				close(release)
				t.Fatalf("parked snapshot has %d events, want %d", full.Len(), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) || len(got[i]) != len(want[i]) {
					close(release)
					t.Fatalf("parked snapshot stamp %d = %v, twin has %v", i, got[i], want[i])
				}
			}
		}
		close(release)
		if err := <-sealed; err != nil {
			t.Fatal(err)
		}
		if got := tr.Stats().SealedEvents; got != upTo {
			t.Fatalf("round %d: sealed %d events, want %d", round, got, upTo)
		}
	}
	full, got := tr.Snapshot()
	_, want := twin.Snapshot()
	for i := range want {
		if !got[i].Equal(want[i]) || len(got[i]) != len(want[i]) {
			t.Fatalf("final stamp %d = %v, twin has %v", i, got[i], want[i])
		}
	}
	if err := clock.Validate(full, got, "seal-merge-off-barrier"); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Seals != 2 || st.SealBarrierNanos <= 0 || st.SealBarrierMaxNanos <= 0 || st.SealBarrierMaxNanos > st.SealBarrierNanos {
		t.Fatalf("seal barrier stats after two seals: %+v", st)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSealCutKeepsCheckpoints seals through the middle of a generation:
// one batch commits all the records of one thread in a single generation,
// and the aligned auto-seal cuts it, so the tail keeps a remainder that
// shares the generation's buffers. With 150 records cut at 100 the
// remainder's records have full-stamp checkpoints on both sides of the
// cut; with 50 cut at 40 they have none and replay from the thread's base.
// Every lazy stamp, tail and sealed, must equal a twin's that never seals.
func TestSealCutKeepsCheckpoints(t *testing.T) {
	for _, c := range []struct{ batch, every int }{{150, 100}, {50, 40}} {
		t.Run(fmt.Sprintf("batch=%d/every=%d", c.batch, c.every), func(t *testing.T) {
			tr := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealEvery: c.every}}))
			twin := mustOpen(t, "")
			ops := make([]event.Op, c.batch)
			for i := range ops {
				ops[i] = event.Op(i % 2)
			}
			a, o := tr.NewThread("a"), tr.NewObject("o")
			ta, to := twin.NewThread("a"), twin.NewObject("o")
			got := a.DoBatch(o, ops)
			ta.DoBatch(to, ops)
			tr.waitIdle()
			if st := tr.Stats(); st.SealedEvents != c.every {
				t.Fatalf("sealed %d events, want the aligned %d", st.SealedEvents, c.every)
			}
			// More records on top of the remainder, so the tail chains
			// across it.
			for i := 0; i < 20; i++ {
				got = append(got, a.Write(o, nil))
				ta.Write(to, nil)
			}
			_, want := twin.Snapshot()
			for i := len(got) - 1; i >= 0; i-- {
				if v := got[i].Vector(); !v.Equal(want[i]) || len(v) != len(want[i]) {
					t.Fatalf("lazy stamp %d = %v, twin has %v", i, v, want[i])
				}
			}
			if err := tr.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSealFailureKeepsCheckpoints pins that a seal which weaves the
// generations it consumes leaves every one of them with its full set of
// checkpoints when its spill then fails: the checkpoints below its cut come
// from its log writer, the ones above from the run vectors it restarts at
// the writer's final stamps, and a failed seal leaves all of them in the
// tail. Every segment spill fails (degraded mode, the disk probe re-arming
// sealing each round) while each of a few threads commits several times
// stampCheckpointEvery records per failed seal, on objects drawn at
// random, after a thread that then falls silent, so the others' stamps
// carry a component none of their later change sets touches; "interval" seals the whole tail, so each failed seal weaves a
// fresh generation, and "every" cuts through the one generation its seal
// weaves. Every lazy stamp, all of them in the tail, must equal the stamp
// of a twin tracker that never seals — and, once the disk heals and the
// tail seals, so must every streamed one.
func TestSealFailureKeepsCheckpoints(t *testing.T) {
	const rounds, threads, objects = 4, 3, 5
	const perRound = threads * (3*stampCheckpointEvery + 17)
	for _, c := range []struct {
		name  string
		spill SpillPolicy
	}{
		{"interval", SpillPolicy{SealInterval: time.Nanosecond, Probe: time.Hour}},
		{"every", SpillPolicy{SealEvery: 200, Probe: time.Hour}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fi := vfs.NewFaulty(vfs.OS)
			fi.Script(vfs.Rule{Ops: vfs.Ops(vfs.OpCreateTemp), PathContains: ".seg-", Err: syscall.ENOSPC})
			tr := mustOpen(t, t.TempDir(), WithStore(Store{Spill: c.spill, FS: fi}))
			twin := mustOpen(t, "")
			// The first seal waits for the whole first round, so it swaps
			// and weaves all of it.
			_, release := parkWorker(tr)
			var ths, tths [threads]*Thread
			for i := range ths {
				ths[i], tths[i] = tr.NewThread("t"), twin.NewThread("t")
			}
			var objs, tobjs [objects]*Object
			for i := range objs {
				objs[i], tobjs[i] = tr.NewObject("o"), twin.NewObject("o")
			}
			rng := rand.New(rand.NewSource(5))
			var got []Stamped
			write := func(th, tth *Thread) {
				k := rng.Intn(objects)
				got = append(got, th.Write(objs[k], nil))
				tth.Write(tobjs[k], nil)
			}
			commit := func(n int) {
				for range n {
					i := len(got) % threads
					write(ths[i], tths[i])
				}
			}
			quiet, tquiet := tr.NewThread("quiet"), twin.NewThread("quiet")
			for range 2 * objects {
				write(quiet, tquiet)
			}
			commit(perRound)
			release()
			tr.waitIdle()
			for r := 1; r < rounds; r++ {
				commit(perRound)
				// The disk probe falls due: the next commit starts the
				// worker, whose probe succeeds (it writes no segment temp
				// file) and whose seal fails again.
				tr.lastProbeNano.Store(0)
				commit(1)
				tr.waitIdle()
			}
			failed := 0
			for _, id := range fi.History() {
				if id.Op == vfs.OpCreateTemp && strings.Contains(id.Path, ".seg-") {
					failed++
				}
			}
			if h := tr.Health(); failed < rounds || !h.Degraded || h.UnsealedEvents != len(got) {
				t.Fatalf("%d failed seals, Health %+v; want %d or more, degraded, %d unsealed", failed, h, rounds, len(got))
			}
			_, want := twin.Snapshot()
			for i := len(got) - 1; i >= 0; i-- {
				if v := got[i].Vector(); !v.Equal(want[i]) || len(v) != len(want[i]) {
					t.Fatalf("lazy tail stamp %d = %v, twin has %v", i, v, want[i])
				}
			}
			fi.Heal()
			tr.lastProbeNano.Store(0)
			commit(1)
			tr.waitIdle()
			if h := tr.Health(); h.Degraded {
				t.Fatalf("still degraded after the disk healed: %+v", h)
			}
			_, streamed := tr.Snapshot()
			_, want = twin.Snapshot()
			if len(streamed) != len(want) {
				t.Fatalf("streamed %d stamps, twin has %d", len(streamed), len(want))
			}
			for i := range want {
				if !streamed[i].Equal(want[i]) || len(streamed[i]) != len(want[i]) {
					t.Fatalf("streamed stamp %d = %v, twin has %v", i, streamed[i], want[i])
				}
			}
			if err := tr.Err(); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("Err = %v, want the spill failure", err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSealedStampSkipsBarrier pins that materializing a sealed stamp reads
// its segment without the world barrier: it completes while another
// goroutine holds a world read lock, exactly as an in-flight commit would.
func TestSealedStampSkipsBarrier(t *testing.T) {
	tr := mustOpen(t, t.TempDir())
	th, o := tr.NewThread("t"), tr.NewObject("o")
	var stamps []Stamped
	for i := 0; i < 40; i++ {
		stamps = append(stamps, th.Write(o, nil))
	}
	_, want := tr.Snapshot()
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	tr.world.RLock(0)
	got := make(chan vclock.Vector, 1)
	go func() { got <- stamps[17].Vector() }()
	select {
	case v := <-got:
		tr.world.RUnlock(0)
		if !v.Equal(want[17]) {
			t.Fatalf("sealed stamp 17 = %v, want %v", v, want[17])
		}
	case <-time.After(10 * time.Second):
		tr.world.RUnlock(0)
		t.Fatal("sealed stamp materialization blocked on the world write lock")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// nopSink drains a stream, keeping nothing.
type nopSink struct{}

func (nopSink) ConsumeStamp(event.Event, int, vclock.Vector) error { return nil }

// tailStamps replays src through a tracker that never seals on its own and
// returns every stamp as its tail replay produced it: the first epoch is
// snapshotted just before the Compact at mid, the second at the end. It is
// the seal-independent reference the sealing tracker is checked against.
func tailStamps(t *testing.T, src *event.Trace, mid int) []vclock.Vector {
	t.Helper()
	tr := mustOpen(t, "")
	var ref []vclock.Vector
	replayOps(t, tr, src, func(i int, _ []Stamped) {
		if i == mid {
			_, before := tr.Snapshot()
			ref = append(ref, before...)
			if _, _, err := tr.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	})
	_, after := tr.Snapshot()
	return append(ref, after[mid:]...)
}

// replayOps registers src's threads and objects on tr and commits src in
// trace order, calling before(i, stamps) ahead of operation i with the
// stamps committed so far.
func replayOps(t *testing.T, tr *Tracker, src *event.Trace, before func(i int, stamps []Stamped)) []Stamped {
	t.Helper()
	threads := make([]*Thread, src.Threads())
	for i := range threads {
		threads[i] = tr.NewThread(fmt.Sprintf("t%d", i))
	}
	objects := make([]*Object, src.Objects())
	for i := range objects {
		objects[i] = tr.NewObject(fmt.Sprintf("o%d", i))
	}
	got := make([]Stamped, src.Len())
	for i := range got {
		before(i, got[:i])
		e := src.At(i)
		got[i] = threads[e.Thread].Do(objects[e.Object], e.Op, nil)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSealedBytesMatchAppendEncode is the seal path's byte-identity
// property: for every generator workload, with an odd SealEvery (cuts split blocks), a mid-run Compact, and Stream freezes
// between commits (seals split frozen blocks), every sealed segment is
// byte-identical to encoding the full stamps of its range with
// DeltaWriter.Append — the encoding the seal used before it learned to
// write straight from change sets. The reference stamps come from a twin
// tracker that never seals, so they do not depend on the seal path at all.
// Snapshot and every lazy stamp — taken mid-run from the tail and at the
// end from segments and tail — must match them too.
func TestSealedBytesMatchAppendEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, wl := range trace.Workloads() {
		src, err := trace.Generate(wl, trace.Config{Threads: 8, Objects: 8, Events: 400}, rng)
		if err != nil {
			t.Fatal(err)
		}
		mid := src.Len() / 2
		t.Run(fmt.Sprintf("%v/flat", wl), func(t *testing.T) {
			ref := tailStamps(t, src, mid)
			tr := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealEvery: 37}}))
			early := map[int]vclock.Vector{}
			got := replayOps(t, tr, src, func(i int, got []Stamped) {
				switch {
				case i == mid:
					if _, _, err := tr.Compact(); err != nil {
						t.Fatal(err)
					}
				case i%29 == 0:
					if err := tr.Stream(nopSink{}); err != nil {
						t.Fatal(err)
					}
				case i%23 == 0 && i > 0:
					early[i-1] = got[i-1].Vector()
				}
			})
			tr.waitIdle()
			full, stamps := tr.Snapshot()
			if full.Len() != src.Len() {
				t.Fatalf("snapshot has %d events, want %d", full.Len(), src.Len())
			}
			segs := tr.hist.Load().segs
			if len(segs) < 4 {
				t.Fatalf("only %d segments sealed", len(segs))
			}
			for _, sg := range segs {
				m := sg.meta
				var payload bytes.Buffer
				w := tlog.NewDeltaWriter(&payload)
				widths := make([]int, 0, m.Count)
				for i := m.FirstIndex; i < m.FirstIndex+m.Count; i++ {
					if err := w.Append(full.At(i), ref[i]); err != nil {
						t.Fatal(err)
					}
					widths = append(widths, len(ref[i]))
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				want, err := tlog.AppendSegment(nil, m, widths, payload.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sg.data, want) {
					t.Fatalf("segment %v: %d sealed bytes differ from the %d-byte Append re-encode",
						m, len(sg.data), len(want))
				}
			}
			same := func(what string, i int, v vclock.Vector) {
				if !v.Equal(ref[i]) || len(v) != len(ref[i]) {
					t.Fatalf("%s %d = %v (width %d), want %v (width %d)", what, i, v, len(v), ref[i], len(ref[i]))
				}
			}
			for i, v := range stamps {
				same("snapshot stamp", i, v)
			}
			for i, v := range early {
				same("mid-run tail stamp", i, v)
			}
			for i, s := range got {
				same("lazy stamp", i, s.Vector())
			}
			if err := tr.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLazyStampsRaceSeal materializes lazy stamps from worker goroutines
// while they commit, auto-seal to disk, and race the main goroutine's
// explicit Seals and Streams: a stamp may be read from the tail, from a
// generation a seal has swapped out but nobody has woven yet, from one it
// has woven but not yet published, or from a spilled segment. Every seal
// also materializes the last record it swapped right at its park point,
// before its own weave, and lingers there so the workers' stamps land in
// that window too. Every materialized stamp must equal the final
// history's. Run under -race.
func TestLazyStampsRaceSeal(t *testing.T) {
	tr := mustOpen(t, t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: 53}}))
	const nWorkers, nObjects, opsPer = 6, 4, 400
	objects := make([]*Object, nObjects)
	for i := range objects {
		objects[i] = tr.NewObject("obj")
	}
	type seen struct {
		idx int
		v   vclock.Vector
	}
	var parkMu sync.Mutex
	var atPark []seen
	unwoven := 0
	tr.sealPark = func(upTo int) {
		pending := int(tr.woven.Load()) < upTo
		v := tr.stampAt(upTo - 1)
		runtime.Gosched() // let the workers' stamps land in the window too
		parkMu.Lock()
		atPark = append(atPark, seen{upTo - 1, v})
		if pending {
			unwoven++
		}
		parkMu.Unlock()
	}
	got := make([][]seen, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		th := tr.NewThread("worker")
		wg.Add(1)
		go func(th *Thread, w int) {
			defer wg.Done()
			var mine []Stamped
			for i := 0; i < opsPer; i++ {
				op := event.OpWrite
				if i%3 == 0 {
					op = event.OpRead
				}
				mine = append(mine, th.Do(objects[(w+i)%nObjects], op, nil))
				if i%7 == 0 {
					s := mine[i*5/7] // anywhere from just committed to long sealed
					got[w] = append(got[w], seen{s.Event.Index, s.Vector()})
				}
			}
		}(th, w)
	}
	for r := 0; r < 8; r++ {
		if err := tr.Seal(); err != nil {
			t.Error(err)
			break
		}
		if err := tr.Stream(nopSink{}); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	_, stamps := tr.Snapshot()
	for w, ss := range got {
		for _, s := range ss {
			if !s.v.Equal(stamps[s.idx]) || len(s.v) != len(stamps[s.idx]) {
				t.Fatalf("worker %d: lazy stamp %d = %v, final history has %v", w, s.idx, s.v, stamps[s.idx])
			}
		}
	}
	if unwoven == 0 {
		t.Fatalf("none of %d seals parked with its generation still unwoven", len(atPark))
	}
	for _, s := range atPark {
		if !s.v.Equal(stamps[s.idx]) || len(s.v) != len(stamps[s.idx]) {
			t.Fatalf("stamp %d read at a seal's park point = %v, final history has %v", s.idx, s.v, stamps[s.idx])
		}
	}
	validateEpochs(t, tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedStampsMatchReturned is the stamp-identity guard of the segment
// encoding: every stamp decoded from a segment equals the stamp the tracker
// returned for the event. Two goroutines commit, each on its own threads,
// through Do, DoBatch and Batch; every returned stamp is materialized from
// the tail before anything seals it. The run seals round by round, crosses
// a Compact epoch, merges its segments with CompactSegments, closes,
// reopens and commits again, and a last reopen's Stream must replay exactly
// the returned stamps — through derived records, which the spill files must
// hold.
func TestSealedStampsMatchReturned(t *testing.T) {
	dir := t.TempDir()
	type stamp struct {
		epoch int
		v     vclock.Vector
	}
	want := map[int]stamp{}
	round := func(tr *Tracker, seed int64) {
		threads, objs := tr.Threads(), tr.Objects()
		var mu sync.Mutex
		var wg sync.WaitGroup
		for d := 0; d < 2; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*2 + int64(d)))
				var got []Stamped
				for k := 0; k < 120; k++ {
					th := threads[2*rng.Intn(len(threads)/2)+d]
					o := objs[rng.Intn(len(objs))]
					switch rng.Intn(3) {
					case 0:
						got = append(got, th.Do(o, event.Op(rng.Intn(2)), nil))
					case 1:
						got = append(got, th.DoBatch(o, []event.Op{event.OpRead, event.OpWrite, event.OpRead})...)
					default:
						got = append(got, th.NewBatch().Write(o).Read(objs[rng.Intn(len(objs))]).Write(o).Commit()...)
					}
				}
				mu.Lock()
				defer mu.Unlock()
				for _, s := range got {
					want[s.Event.Index] = stamp{s.Epoch, s.Vector()}
				}
			}()
		}
		wg.Wait()
		if err := tr.Seal(); err != nil {
			t.Fatal(err)
		}
	}

	tr := mustOpen(t, dir)
	for i := 0; i < 6; i++ {
		tr.NewThread(fmt.Sprintf("t%d", i))
	}
	for i := 0; i < 5; i++ {
		tr.NewObject(fmt.Sprintf("o%d", i))
	}
	round(tr, 1)
	round(tr, 2)
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	round(tr, 3)
	round(tr, 4)
	if n, err := tr.CompactSegments(CompactPolicy{}); err != nil || n == 0 {
		t.Fatalf("CompactSegments eliminated %d segments, err %v", n, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir)
	round(re, 5)
	round(re, 6)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	final := mustOpen(t, dir)
	defer final.Close()
	var c streamCollector
	if err := final.Stream(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.events) != len(want) {
		t.Fatalf("Stream replayed %d records, %d were committed", len(c.events), len(want))
	}
	for i, e := range c.events {
		w, ok := want[e.Index]
		if !ok || c.epochs[i] != w.epoch || !c.stamps[i].Equal(w.v) || len(c.stamps[i]) != len(w.v) {
			t.Fatalf("record %v: sealed epoch %d stamp %v, returned epoch %d stamp %v", e, c.epochs[i], c.stamps[i], w.epoch, w.v)
		}
	}
	var kinds tlog.RecordKinds
	for _, sg := range final.Segments() {
		data, err := os.ReadFile(sg.Path)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := tlog.NewSegmentReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			_, _, err = sr.Next()
		}
		if err != io.EOF {
			t.Fatal(err)
		}
		k := sr.RecordKinds()
		kinds.Full, kinds.Delta, kinds.Derived = kinds.Full+k.Full, kinds.Delta+k.Delta, kinds.Derived+k.Derived
	}
	if kinds.Derived <= kinds.Full+kinds.Delta {
		t.Fatalf("segments hold %+v: derived records should dominate", kinds)
	}
}
