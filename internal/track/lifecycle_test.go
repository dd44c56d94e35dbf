package track

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/trace"
	"mixedclock/internal/vclock"
)

// segFiles lists the seg-*.mvcseg files in a spill directory.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.mvcseg"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestCompactSegmentsReducesFiles is the headline acceptance scenario: a
// tracker sealing every two events across two epochs litters its spill
// directory with ~100 tiny segments; one compaction pass must collapse them
// to at most MaxSegments files (here: one per epoch) with replay bytes —
// and every stamp — unchanged.
func TestCompactSegmentsReducesFiles(t *testing.T) {
	dir := t.TempDir()
	tr := mustOpen(t, dir, WithStore(Store{Spill: SpillPolicy{SealEvery: 2}}))
	th := tr.NewThread("t")
	o1 := tr.NewObject("o1")
	o2 := tr.NewObject("o2")
	drive := func(n int) {
		for i := 0; i < n; i++ {
			th.Write([]*Object{o1, o2}[i%2], nil)
		}
	}
	drive(100)
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	drive(100)
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if n := len(segFiles(t, dir)); n < 90 {
		t.Fatalf("setup produced only %d spill files", n)
	}
	var before bytes.Buffer
	if err := tr.SnapshotTo(&before); err != nil {
		t.Fatal(err)
	}
	refTrace, refStamps := tr.Snapshot()

	const maxSegments = 8
	eliminated, err := tr.CompactSegments(CompactPolicy{MaxSegments: maxSegments})
	if err != nil {
		t.Fatal(err)
	}
	if eliminated < 90 {
		t.Fatalf("compaction eliminated only %d segments", eliminated)
	}
	segs := tr.Segments()
	if len(segs) > maxSegments {
		t.Fatalf("%d segments survive compaction, want <= %d", len(segs), maxSegments)
	}
	if files := segFiles(t, dir); len(files) > maxSegments {
		t.Fatalf("%d spill files survive compaction, want <= %d: %v", len(files), maxSegments, files)
	}
	// Two epochs: compaction must not have merged across the boundary.
	if segs[0].Epoch == segs[len(segs)-1].Epoch {
		t.Fatalf("segments span a single epoch after an epoch compaction: %+v", segs)
	}

	var after bytes.Buffer
	if err := tr.SnapshotTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("SnapshotTo bytes changed across compaction: %d vs %d bytes",
			before.Len(), after.Len())
	}
	gotTrace, gotStamps := tr.Snapshot()
	if gotTrace.Len() != refTrace.Len() {
		t.Fatalf("snapshot has %d events after compaction, want %d", gotTrace.Len(), refTrace.Len())
	}
	for i := 0; i < refTrace.Len(); i++ {
		if gotTrace.At(i) != refTrace.At(i) || !gotStamps[i].Equal(refStamps[i]) ||
			len(gotStamps[i]) != len(refStamps[i]) {
			t.Fatalf("record %d diverges after compaction", i)
		}
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	validateEpochs(t, tr)
}

// TestCompactSegmentsPreservesReplay is the lifecycle property test: for
// every generator workload, on both backends, compacting the sealed history
// and replaying must be stamp-for-stamp — and, via SnapshotTo, byte-for-
// byte — identical to replaying the original segments.
func TestCompactSegmentsPreservesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, wl := range trace.Workloads() {
		src, err := trace.Generate(wl, trace.Config{Threads: 8, Objects: 8, Events: 320}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []vclock.Backend{vclock.BackendFlat, vclock.BackendTree} {
			t.Run(fmt.Sprintf("%v/%v", wl, backend), func(t *testing.T) {
				tr := mustOpen(t, t.TempDir(), WithBackend(backend),
					WithStore(Store{Spill: SpillPolicy{SealEvery: 30}}))
				replayTrace(t, tr, src, src.Len()/2)
				if err := tr.Seal(); err != nil {
					t.Fatal(err)
				}
				nBefore := len(tr.Segments())
				if nBefore < 4 {
					t.Fatalf("setup sealed only %d segments", nBefore)
				}
				var want bytes.Buffer
				if err := tr.SnapshotTo(&want); err != nil {
					t.Fatal(err)
				}
				refTrace, refStamps := tr.Snapshot()

				// Zero policy: unconditional, one segment per epoch run.
				eliminated, err := tr.CompactSegments(CompactPolicy{})
				if err != nil {
					t.Fatal(err)
				}
				if eliminated != nBefore-len(tr.Segments()) {
					t.Fatalf("eliminated %d but segment count went %d -> %d",
						eliminated, nBefore, len(tr.Segments()))
				}
				if eliminated == 0 {
					t.Fatalf("compaction merged nothing out of %d segments", nBefore)
				}
				var got bytes.Buffer
				if err := tr.SnapshotTo(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want.Bytes(), got.Bytes()) {
					t.Fatalf("SnapshotTo bytes changed across compaction: %d vs %d",
						want.Len(), got.Len())
				}
				gotTrace, gotStamps := tr.Snapshot()
				if gotTrace.Len() != refTrace.Len() {
					t.Fatalf("replay has %d events, want %d", gotTrace.Len(), refTrace.Len())
				}
				for i := 0; i < refTrace.Len(); i++ {
					if gotTrace.At(i) != refTrace.At(i) {
						t.Fatalf("event %d: %+v, want %+v", i, gotTrace.At(i), refTrace.At(i))
					}
					if !gotStamps[i].Equal(refStamps[i]) || len(gotStamps[i]) != len(refStamps[i]) {
						t.Fatalf("stamp %d: %v (width %d), want %v (width %d)", i,
							gotStamps[i], len(gotStamps[i]), refStamps[i], len(refStamps[i]))
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

// TestSealAligned pins interval-aligned sealing: with SealEvery set, every
// automatic seal boundary lands on a multiple of the interval, whatever the
// commit pattern, and the overshoot waits in the tail for the next boundary.
func TestSealAligned(t *testing.T) {
	const every = 25
	tr := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealEvery: every}}))
	th := tr.NewThread("t")
	o := tr.NewObject("o")
	for i := 0; i < 130; i++ {
		th.Write(o, nil)
	}
	segs := tr.Segments()
	if len(segs) == 0 {
		t.Fatal("aligned sealing sealed nothing")
	}
	covered := 0
	for i, sg := range segs {
		if sg.FirstIndex%every != 0 || (sg.FirstIndex+sg.Events)%every != 0 {
			t.Fatalf("segment %d spans [%d,%d): not aligned to %d",
				i, sg.FirstIndex, sg.FirstIndex+sg.Events, every)
		}
		covered += sg.Events
	}
	if covered != 125 {
		t.Fatalf("aligned seals cover %d events of 130, want 125", covered)
	}
	// The explicit Seal flushes the unaligned remainder.
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if c := tr.Catalog(); c.SealedEvents != 130 {
		t.Fatalf("catalog covers %d events after final seal, want 130", c.SealedEvents)
	}
	full, stamps := tr.Snapshot()
	if full.Len() != 130 || len(stamps) != 130 {
		t.Fatalf("snapshot restored %d events", full.Len())
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSealEveryBoundsUnsealed pins the memory bound SealEvery gives a single
// committing goroutine: after every commit, fewer than SealEvery events sit
// unsealed — including after an epoch Compact leaves the seal point off the
// interval grid.
func TestSealEveryBoundsUnsealed(t *testing.T) {
	const every, total, compactAt = 16, 300, 137
	tr := mustOpen(t, t.TempDir(), WithStore(Store{Spill: SpillPolicy{SealEvery: every}}))
	ths := []*Thread{tr.NewThread("a"), tr.NewThread("b")}
	objs := []*Object{tr.NewObject("x"), tr.NewObject("y"), tr.NewObject("z")}
	for i := 0; i < total; i++ {
		if i == compactAt {
			if _, _, err := tr.Compact(); err != nil {
				t.Fatal(err)
			}
			if h := tr.Health(); h.UnsealedEvents != 0 {
				t.Fatalf("Compact left %d events unsealed", h.UnsealedEvents)
			}
		}
		ths[i%2].Do(objs[(i*7)%3], event.Op(i%2), nil)
		if h := tr.Health(); h.UnsealedEvents >= every {
			t.Fatalf("after commit %d: %d events unsealed, want < %d", i, h.UnsealedEvents, every)
		}
	}
	if got, want := tr.Catalog().SealedEvents, total/every*every; got != want {
		t.Fatalf("sealed through %d, want the last boundary %d", got, want)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSealInterval pins wall-time sealing: commits trickling in slower than
// the interval still get sealed (and thus shipped), without any event-count
// trigger firing.
func TestSealInterval(t *testing.T) {
	tr := mustOpen(t, "", WithStore(Store{Spill: SpillPolicy{SealInterval: time.Millisecond}}))
	th := tr.NewThread("t")
	o := tr.NewObject("o")
	for i := 0; i < 4; i++ {
		th.Write(o, nil)
		time.Sleep(3 * time.Millisecond)
		th.Write(o, nil)
	}
	segs := tr.Segments()
	if len(segs) < 2 {
		t.Fatalf("wall-time sealing produced %d segments over 8 slow commits", len(segs))
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCatalog pins the shipper contract: the catalog matches Segments entry
// for entry, validates, carries content hashes that match the spill files,
// and the published catalog.json is byte-level readable, relative-path
// addressed, and regenerated on compaction.
func TestCatalog(t *testing.T) {
	dir := t.TempDir()
	tr := mustOpen(t, dir, WithStore(Store{Spill: SpillPolicy{SealEvery: 10}}))
	th := tr.NewThread("t")
	o := tr.NewObject("o")
	for i := 0; i < 55; i++ {
		th.Write(o, nil)
	}
	c := tr.Catalog()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	segs := tr.Segments()
	if len(c.Segments) != len(segs) || len(segs) < 4 {
		t.Fatalf("catalog lists %d segments, tracker has %d", len(c.Segments), len(segs))
	}
	for i, cs := range c.Segments {
		sg := segs[i]
		if cs.Epoch != sg.Epoch || cs.FirstIndex != sg.FirstIndex || cs.Events != sg.Events ||
			cs.Bytes != sg.Bytes || cs.SHA256 != sg.SHA256 {
			t.Fatalf("catalog segment %d %+v does not match %+v", i, cs, sg)
		}
		// Paths are relative to the spill dir, and the hash is the file's.
		full := filepath.Join(dir, cs.Path)
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != cs.SHA256 {
			t.Fatalf("catalog segment %d hash does not match file %s", i, full)
		}
	}
	if c.Health != "" || c.AutoSealDisarmed {
		t.Fatalf("healthy tracker reports health %q, disarmed %v", c.Health, c.AutoSealDisarmed)
	}

	// The published document matches the live catalog.
	f, err := os.Open(filepath.Join(dir, CatalogFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	published, err := tlog.DecodeCatalog(f)
	if err != nil {
		t.Fatal(err)
	}
	if published.Generation != c.Generation || published.SealedEvents != c.SealedEvents ||
		len(published.Segments) != len(c.Segments) {
		t.Fatalf("published catalog diverges: %+v vs %+v", published, c)
	}

	// Compaction bumps the generation and the published file follows.
	if _, err := tr.CompactSegments(CompactPolicy{}); err != nil {
		t.Fatal(err)
	}
	c2 := tr.Catalog()
	if c2.Generation <= c.Generation {
		t.Fatalf("generation did not advance across compaction: %d -> %d", c.Generation, c2.Generation)
	}
	f2, err := os.Open(filepath.Join(dir, CatalogFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	published2, err := tlog.DecodeCatalog(f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(published2.Segments) >= len(published.Segments) {
		t.Fatalf("published catalog still lists %d segments after compaction", len(published2.Segments))
	}
	if published2.SealedEvents != published.SealedEvents {
		t.Fatalf("compaction changed sealed coverage: %d -> %d",
			published.SealedEvents, published2.SealedEvents)
	}
}

// TestCatalogHealth pins the broken-storage surface: a failing auto-seal
// reports through the catalog (health text + disarmed flag), an explicit
// Seal against repaired storage re-arms, and the re-armed catalog reaches
// the repaired directory.
func TestCatalogHealth(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, []byte("in the way"), 0o666); err != nil {
		t.Fatal(err)
	}
	tr := mustOpen(t, blocked, WithStore(Store{Spill: SpillPolicy{SealEvery: 10}}))
	th := tr.NewThread("t")
	o := tr.NewObject("o")
	for i := 0; i < 30; i++ {
		th.Write(o, nil)
	}
	c := tr.Catalog()
	if !c.AutoSealDisarmed {
		t.Fatal("failing auto-seal not reported as disarmed in the catalog")
	}
	if !strings.Contains(c.Health, "spilling") {
		t.Fatalf("catalog health %q does not carry the spill error", c.Health)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("unhealthy catalog must still validate: %v", err)
	}

	// Repair the storage: an explicit Seal re-arms and publishes.
	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	c2 := tr.Catalog()
	if c2.AutoSealDisarmed {
		t.Fatal("successful Seal did not re-arm auto-sealing")
	}
	if c2.SealedEvents != 30 || len(c2.Segments) == 0 {
		t.Fatalf("repaired seal covers %d events in %d segments", c2.SealedEvents, len(c2.Segments))
	}
	f, err := os.Open(filepath.Join(blocked, CatalogFileName))
	if err != nil {
		t.Fatalf("no published catalog after repair: %v", err)
	}
	defer f.Close()
	if _, err := tlog.DecodeCatalog(f); err != nil {
		t.Fatal(err)
	}
}

// overlapSink proves commits proceed while the sink is mid-tail-replay: on
// the first tail record it starts a commit on another thread and refuses to
// continue until that commit lands. Under the old design — the whole tail
// replayed under the world write barrier — the commit could never take its
// world read lock and this deadlocked; with the double-buffered tail the
// commit lands in fresh buffers while the frozen generations stream.
type overlapSink struct {
	th      *Thread
	obj     *Object
	started bool
	n       int
}

func (s *overlapSink) ConsumeStamp(e event.Event, _ int, _ vclock.Vector) error {
	if !s.started {
		s.started = true
		done := make(chan struct{})
		go func() {
			s.th.Write(s.obj, nil)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("commit did not overlap the tail replay: Stream still holds the world barrier")
		}
	}
	s.n++
	return nil
}

// TestStreamTailOverlapsCommits is the barrier-free acceptance test (race-
// stressed in CI): a Stream over a tracker whose whole history sits in the
// merged tail must let concurrent commits through mid-replay, and still
// deliver exactly the consistent prefix from its freeze point.
func TestStreamTailOverlapsCommits(t *testing.T) {
	tr := mustOpen(t, "")
	th := tr.NewThread("w")
	o := tr.NewObject("o")
	const preStream = 50
	for i := 0; i < preStream; i++ {
		th.Write(o, nil)
	}
	other := tr.NewThread("other")
	o2 := tr.NewObject("o2")
	sink := &overlapSink{th: other, obj: o2}
	if err := tr.Stream(sink); err != nil {
		t.Fatal(err)
	}
	if sink.n != preStream {
		t.Fatalf("stream delivered %d records, want the %d-event freeze prefix", sink.n, preStream)
	}
	// The overlapping commit is in the history the next reader sees.
	full, stamps := tr.Snapshot()
	if full.Len() != preStream+1 {
		t.Fatalf("final history has %d events, want %d", full.Len(), preStream+1)
	}
	if len(stamps) != full.Len() {
		t.Fatalf("stamps out of step: %d for %d events", len(stamps), full.Len())
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamRacesSegmentCompact hammers the tracker from worker goroutines
// while the main goroutine interleaves explicit seals, tiered compaction
// and streams — with auto-sealing and auto-compaction also armed — and
// checks every streamed snapshot is a dense consistent prefix whose stamps
// match the final history. This is the spill-file-retirement race: a
// compaction pass deletes segment files while streams replay them, and the
// stream's retry against the merged replacement must be invisible. Lazy
// sealed stamps race the same retirements: every tenth commit a worker
// materializes one of its earlier handles, which must equal the final
// history's stamp. Run under -race and -count in CI.
func TestStreamRacesSegmentCompact(t *testing.T) {
	tr := mustOpen(t, t.TempDir(), WithStore(Store{
		Spill:   SpillPolicy{SealEvery: 24},
		Compact: CompactPolicy{MaxSegments: 4},
	}))
	const nWorkers, nObjects, opsPer, rounds = 8, 5, 250, 8
	objects := make([]*Object, nObjects)
	for i := range objects {
		objects[i] = tr.NewObject("obj")
	}
	type lazyStamp struct {
		idx int
		v   vclock.Vector
	}
	lazy := make([][]lazyStamp, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		th := tr.NewThread("worker")
		wg.Add(1)
		go func(th *Thread, w int) {
			defer wg.Done()
			handles := make([]Stamped, 0, opsPer)
			for i := 0; i < opsPer; i++ {
				handles = append(handles, th.Write(objects[(w+i)%nObjects], nil))
				if i%10 == 9 {
					s := handles[i/3]
					lazy[w] = append(lazy[w], lazyStamp{s.Event.Index, s.Vector()})
				}
			}
		}(th, w)
	}
	var streams []*streamCollector
	for r := 0; r < rounds; r++ {
		if err := tr.Seal(); err != nil {
			t.Error(err)
			break
		}
		if _, err := tr.CompactSegments(CompactPolicy{MaxSegments: 2}); err != nil {
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
			if full.At(i).Thread != e.Thread || full.At(i).Object != e.Object {
				t.Fatalf("stream %d: record %d is %+v, final history has %+v", si, i, e, full.At(i))
			}
			if !c.stamps[i].Equal(stamps[i]) {
				t.Fatalf("stream %d: stamp %d = %v, final history has %v", si, i, c.stamps[i], stamps[i])
			}
		}
	}
	for w, samples := range lazy {
		for _, s := range samples {
			if !s.v.Equal(stamps[s.idx]) || len(s.v) != len(stamps[s.idx]) {
				t.Fatalf("worker %d: lazy stamp %d = %v, final history has %v", w, s.idx, s.v, stamps[s.idx])
			}
		}
	}
	if c := tr.Catalog(); c.Validate() != nil || c.Health != "" {
		t.Fatalf("catalog after the race: %+v (validate: %v)", c, c.Validate())
	}
}
