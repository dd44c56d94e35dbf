package tlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"

	"mixedclock/internal/baseline"
	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// checkSameComputation asserts two (trace, stamps) pairs are identical.
func checkSameComputation(t *testing.T, gotTr *event.Trace, gotStamps []vclock.Vector, tr *event.Trace, stamps []vclock.Vector) {
	t.Helper()
	if gotTr.Len() != tr.Len() {
		t.Fatalf("events: %d, want %d", gotTr.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if gotTr.At(i) != tr.At(i) {
			t.Fatalf("event %d: %+v != %+v", i, gotTr.At(i), tr.At(i))
		}
		if !gotStamps[i].Equal(stamps[i]) {
			t.Fatalf("stamp %d: %v != %v", i, gotStamps[i], stamps[i])
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	tr, stamps := sampleComputation(t)
	var buf bytes.Buffer
	if err := WriteAllDelta(&buf, tr, stamps); err != nil {
		t.Fatal(err)
	}
	gotTr, gotStamps, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkSameComputation(t, gotTr, gotStamps, tr, stamps)
}

func TestDeltaRoundTripSyncIntervals(t *testing.T) {
	tr, stamps := sampleComputation(t)
	for _, sync := range []int{0, 1, 2, 7, 1000} {
		var buf bytes.Buffer
		w := NewDeltaWriterSync(&buf, sync)
		for i := 0; i < tr.Len(); i++ {
			if err := w.Append(tr.At(i), stamps[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		gotTr, gotStamps, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("sync=%d: %v", sync, err)
		}
		checkSameComputation(t, gotTr, gotStamps, tr, stamps)
	}
}

// TestAppendDeltaStreaming drives the fully streaming pipeline — offline
// clock change capture into the delta writer, no full vector materialized
// anywhere between clock and disk — and checks the log decodes to exactly
// the stamps the materializing path produces (width-agnostic: the writer
// trims trailing zeros like the full format does).
func TestAppendDeltaStreaming(t *testing.T) {
	tr, stamps := sampleComputation(t)
	a := core.AnalyzeTrace(tr)
	mc := a.NewClock()
	var buf bytes.Buffer
	w := NewDeltaWriterSync(&buf, 8)
	var scratch []vclock.Delta
	for i := 0; i < tr.Len(); i++ {
		var ticks int
		scratch, ticks = mc.TimestampDelta(tr.At(i), scratch[:0])
		if err := w.AppendDelta(tr.At(i), scratch, ticks); err != nil {
			t.Fatal(err)
		}
	}
	if err := mc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	gotTr, gotStamps, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkSameComputation(t, gotTr, gotStamps, tr, stamps)
	if err := clock.Validate(gotTr, gotStamps, "streamed-delta"); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaSmallerThanFull pins the point of the format: on a bursty
// workload over a non-trivial clock the delta stream must be significantly
// smaller than the full one. The thread-clock case is the paper's §VI
// Singhal–Kshemkalyani setting: 12 thread components, of which a thread's
// consecutive stamps within a burst differ in one.
func TestDeltaSmallerThanFull(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := event.NewTrace()
	for round := 0; round < 20; round++ {
		for tid := 0; tid < 12; tid++ {
			obj := event.ObjectID(rng.Intn(12))
			for k := 0; k < 8; k++ {
				tr.Append(event.ThreadID(tid), obj, event.OpWrite)
			}
		}
	}
	for _, c := range []struct {
		name string
		clk  clock.Timestamper
	}{
		{"mixed", core.AnalyzeTrace(tr).NewClock()},
		{"thread", baseline.NewThreadClock(tr.Threads(), tr.Objects())},
	} {
		t.Run(c.name, func(t *testing.T) {
			stamps := clock.Run(tr, c.clk)
			var full, delta bytes.Buffer
			if err := WriteAll(&full, tr, stamps); err != nil {
				t.Fatal(err)
			}
			if err := WriteAllDelta(&delta, tr, stamps); err != nil {
				t.Fatal(err)
			}
			if delta.Len()*2 > full.Len() {
				t.Fatalf("delta log %dB not under half of full log %dB", delta.Len(), full.Len())
			}
			gotTr, gotStamps, err := ReadAll(&delta)
			if err != nil {
				t.Fatal(err)
			}
			checkSameComputation(t, gotTr, gotStamps, tr, stamps)
		})
	}
}

// TestDeltaTruncation mirrors the full format's crash-recovery contract.
// Every record holds at least a header byte and a thread ID, so cutting the
// stream's last byte cuts its last record.
func TestDeltaTruncation(t *testing.T) {
	tr, stamps := sampleComputation(t)
	var buf bytes.Buffer
	if err := WriteAllDelta(&buf, tr, stamps); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	gotTr, gotStamps, err := ReadAll(bytes.NewReader(data[:len(data)-1]))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	if gotTr.Len() == 0 || gotTr.Len() >= tr.Len() {
		t.Fatalf("recovered %d of %d events", gotTr.Len(), tr.Len())
	}
	checkSameComputation(t, gotTr, gotStamps, sliceTracePrefix(tr, gotTr.Len()), stamps[:gotTr.Len()])
}

// TestDeltaCorruptTag pins the reader's bounds checking on the new fields.
func TestDeltaCorruptTag(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magicDelta[:])
	buf.Write([]byte{0, 0, 0, 9}) // thread 0, object 0, op 0, tag 9
	_, _, err := ReadAll(&buf)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad tag: want ErrCorrupt, got %v", err)
	}
}

// TestDeltaBeforeFullIsCorrupt: a delta record for a thread that never had
// a full record has no base to apply to — the reader must refuse to
// fabricate a stamp from zero.
func TestDeltaBeforeFullIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magicDelta[:])
	// thread 0, object 0, op 0, tagDelta, 1 pair: (index 3, value 9).
	buf.Write([]byte{0, 0, 0, tagDelta, 1, 3, 9})
	tr, _, err := ReadAll(&buf)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("delta-before-full: want ErrCorrupt, got %v", err)
	}
	if tr.Len() != 0 {
		t.Fatalf("fabricated %d records from a baseless delta", tr.Len())
	}
}

// TestDeltaIndexBoundMatchesFullFormat: the widest vector a delta stream
// can build must equal the full format's cap, so index == maxComponents is
// corrupt (largest legal index is maxComponents-1).
func TestDeltaIndexBoundMatchesFullFormat(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magicDelta[:])
	buf.Write([]byte{0, 0, 0, tagFull, 1, 1}) // full record: vector [1]
	rec := []byte{0, 0, 0, tagDelta, 1}       // delta record, 1 pair
	rec = appendUvarintBytes(rec, maxComponents)
	rec = append(rec, 5)
	buf.Write(rec)
	_, _, err := ReadAll(&buf)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("index %d: want ErrCorrupt, got %v", maxComponents, err)
	}
}

// appendUvarintBytes is binary.AppendUvarint without the import dance.
func appendUvarintBytes(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

// TestDeltaWidthBudget: a few-byte hostile record naming a huge component
// index must be refused instead of forcing a reconstruction allocation
// orders of magnitude larger than the input (the delta-format analogue of
// the full decoder's incremental-growth guard).
func TestDeltaWidthBudget(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magicDelta[:])
	buf.Write([]byte{0, 0, 0, tagFull, 0}) // full record: empty vector
	rec := []byte{0, 0, 0, tagDelta, 1}
	rec = appendUvarintBytes(rec, maxComponents-1) // in-range index, absurd for a 13-byte stream
	rec = append(rec, 1)
	buf.Write(rec)
	tr, _, err := ReadAll(&buf)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("budget-busting index: want ErrCorrupt, got %v", err)
	}
	if tr.Len() != 1 {
		t.Fatalf("prefix before the corrupt record should survive: got %d records", tr.Len())
	}
}

// TestDeltaHighIndexEarlyRoundTrips pins the writer half of the width
// budget: offline clocks assign component indices up front, so a high index
// can legitimately appear in a thread's second record of a tiny stream. The
// writer must notice the reader's budget wouldn't cover the pair and fall
// back to a full record, keeping its own output always readable.
func TestDeltaHighIndexEarlyRoundTrips(t *testing.T) {
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite)
	tr.Append(0, 1, event.OpWrite)
	tr.Append(0, 1, event.OpWrite)
	stamps := []vclock.Vector{
		(vclock.Vector{1}),
		(vclock.Vector{1}).Set(4999, 1),
		(vclock.Vector{1}).Set(4999, 2).Set(60_000, 1),
	}
	// Both writer paths must survive: the diffing Append...
	var buf bytes.Buffer
	if err := WriteAllDelta(&buf, tr, stamps); err != nil {
		t.Fatal(err)
	}
	gotTr, gotStamps, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkSameComputation(t, gotTr, gotStamps, tr, stamps)
	// ...and the streaming AppendDelta.
	buf.Reset()
	w := NewDeltaWriter(&buf)
	prev := vclock.Vector(nil)
	for i := 0; i < tr.Len(); i++ {
		var ds []vclock.Delta
		n := len(stamps[i])
		for j := 0; j < n; j++ {
			if stamps[i].At(j) != prev.At(j) {
				ds = append(ds, vclock.Delta{Index: int32(j), Value: stamps[i][j]})
			}
		}
		prev = stamps[i]
		if err := w.AppendDelta(tr.At(i), ds, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	gotTr, gotStamps, err = ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkSameComputation(t, gotTr, gotStamps, tr, stamps)
}

// TestDeltaWideClockWithinBudget pins the other side: a genuinely wide
// computation — full records paying for their width, deltas poking sparse
// high indices — stays within the budget and round-trips.
func TestDeltaWideClockWithinBudget(t *testing.T) {
	const width = 3000
	tr := event.NewTrace()
	var stamps []vclock.Vector
	v := make(vclock.Vector, width)
	for i := 0; i < 40; i++ {
		// Touch a sparse high component each event.
		v = v.Tick(width - 1 - i*7)
		tr.Append(0, event.ObjectID(i%4), event.OpWrite)
		stamps = append(stamps, v.Clone())
	}
	var buf bytes.Buffer
	if err := WriteAllDelta(&buf, tr, stamps); err != nil {
		t.Fatal(err)
	}
	gotTr, gotStamps, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkSameComputation(t, gotTr, gotStamps, tr, stamps)
}

// TestDeltaWriterRejectsNegative matches the full writer's validation.
func TestDeltaWriterRejectsNegative(t *testing.T) {
	w := NewDeltaWriter(&bytes.Buffer{})
	if err := w.Append(event.Event{Thread: -1}, nil); err == nil {
		t.Fatal("negative thread accepted")
	}
}

// TestDeltaEmptyAbandonedWriter: an abandoned delta writer leaves no bytes.
func TestDeltaEmptyAbandonedWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewDeltaWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("abandoned writer wrote %d bytes", buf.Len())
	}
}

// sliceTracePrefix returns the first n events of tr as their own trace.
func sliceTracePrefix(tr *event.Trace, n int) *event.Trace {
	out := event.NewTrace()
	for i := 0; i < n; i++ {
		e := tr.At(i)
		out.Append(e.Thread, e.Object, e.Op)
	}
	return out
}

// appendDeltaReference is AppendDelta as it was written before the bitmap
// pass: copy the capture, insertion-sort it by index, keep the last
// assignment per index, drop the no-ops against the thread's previous
// stamp, then apply what survives. It is the oracle the bitmap writer is
// held to, byte for byte.
func appendDeltaReference(w *DeltaWriter, e event.Event, ds []vclock.Delta, ticks int) error {
	st, ob, err := w.begin(e)
	if err != nil {
		return err
	}
	tk := noTicks
	for k, d := range ds[len(ds)-ticks:] {
		tk[k] = uint64(d.Index)
	}
	if ticks == 2 && tk[0] > tk[1] {
		tk[0], tk[1] = tk[1], tk[0]
	}
	derived := !(ticks == 2 && tk[0] == tk[1]) && w.derivable(st, ob, &tk)
	sorted := append([]vclock.Delta(nil), ds...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Index < sorted[j-1].Index; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	pairs := sorted[:0]
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1].Index == sorted[i].Index {
			j++
		}
		if d := sorted[j]; d.Value != st.prev.At(int(d.Index)) {
			pairs = append(pairs, d)
		}
		i = j + 1
	}
	var maxIdx uint64
	if len(pairs) > 0 {
		maxIdx = uint64(pairs[len(pairs)-1].Index)
	}
	st.prev = st.prev.Apply(pairs)
	w.scratch = w.scratch[:0]
	for _, d := range pairs {
		w.scratch = binary.AppendUvarint(w.scratch, uint64(d.Index))
		w.scratch = binary.AppendUvarint(w.scratch, d.Value)
	}
	kind := w.payload(st, ob, derived, &tk, len(pairs), maxIdx)
	ob.known = false
	return w.flushRecord(st, ob, e, kind, &tk)
}

// canonicalWriters feeds one stream of change captures to three writers —
// AppendDelta, the reference body, and Append of the materialized stamps —
// and requires the three outputs to be byte-identical. Byte identity with
// Append needs a truthful tick count: the captures of a real clock carry
// one, and synthetic captures, which follow no update rule, use a fresh
// object per record and tick count 0, so no record is derivable.
type canonicalWriters struct {
	bitmap, ref, vec bytes.Buffer
	wb, wr, wv       *DeltaWriter
	stamps           map[event.ThreadID]vclock.Vector
}

func newCanonicalWriters(sync int) *canonicalWriters {
	c := &canonicalWriters{stamps: map[event.ThreadID]vclock.Vector{}}
	c.wb = NewDeltaWriterSync(&c.bitmap, sync)
	c.wr = NewDeltaWriterSync(&c.ref, sync)
	c.wv = NewDeltaWriterSync(&c.vec, sync)
	return c
}

func (c *canonicalWriters) append(t testing.TB, e event.Event, ds []vclock.Delta, ticks int) {
	t.Helper()
	c.stamps[e.Thread] = c.stamps[e.Thread].Apply(ds)
	if err := c.wb.AppendDelta(e, ds, ticks); err != nil {
		t.Fatal(err)
	}
	if err := appendDeltaReference(c.wr, e, ds, ticks); err != nil {
		t.Fatal(err)
	}
	if err := c.wv.Append(e, c.stamps[e.Thread]); err != nil {
		t.Fatal(err)
	}
}

func (c *canonicalWriters) check(t testing.TB) {
	t.Helper()
	for _, w := range []*DeltaWriter{c.wb, c.wr, c.wv} {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(c.bitmap.Bytes(), c.ref.Bytes()) {
		t.Fatalf("AppendDelta wrote %d bytes differing from the reference's %d", c.bitmap.Len(), c.ref.Len())
	}
	if !bytes.Equal(c.bitmap.Bytes(), c.vec.Bytes()) {
		t.Fatalf("AppendDelta wrote %d bytes differing from Append's %d", c.bitmap.Len(), c.vec.Len())
	}
}

// TestAppendDeltaMatchesReference holds the bitmap AppendDelta to the
// sort-based body it replaced: on the offline clock's real captures, and
// on synthetic captures that shuffle their order, repeat indices and
// assign components their current value, across sync intervals and clock
// widths that span several bitmap words.
func TestAppendDeltaMatchesReference(t *testing.T) {
	tr, _ := sampleComputation(t)
	c := newCanonicalWriters(DefaultSyncEvery)
	mc := core.AnalyzeTrace(tr).NewClock()
	var scratch []vclock.Delta
	for i := 0; i < tr.Len(); i++ {
		var ticks int
		scratch, ticks = mc.TimestampDelta(tr.At(i), scratch[:0])
		c.append(t, tr.At(i), scratch, ticks)
	}
	c.check(t)
	rng := rand.New(rand.NewSource(11))
	for _, width := range []int{3, 64, 65, 153, 300} {
		for _, sync := range []int{1, 4, DefaultSyncEvery} {
			c := newCanonicalWriters(sync)
			for i := 0; i < 400; i++ {
				e := event.Event{Index: i, Thread: event.ThreadID(rng.Intn(4)), Object: event.ObjectID(i)}
				cur := c.stamps[e.Thread]
				var ds []vclock.Delta
				for n := rng.Intn(6); n > 0; n-- {
					idx := rng.Intn(width)
					v := cur.At(idx)
					switch rng.Intn(3) {
					case 0: // a no-op assignment
					case 1:
						v += uint64(rng.Intn(3))
					default:
						v += uint64(1 + rng.Intn(200))
					}
					ds = append(ds, vclock.Delta{Index: int32(idx), Value: v})
					if rng.Intn(4) == 0 { // the same index again, later wins
						ds = append(ds, vclock.Delta{Index: int32(idx), Value: v + uint64(rng.Intn(2))})
					}
				}
				c.append(t, e, ds, 0)
			}
			c.check(t)
		}
	}
}

// TestResetWritesLikeNewWriter pins Reset: a writer reset after one stream
// writes the next byte for byte as a new writer would — no running stamp,
// sync count or object history carries over — and, once its buffers have
// grown, writes it again without allocating.
func TestResetWritesLikeNewWriter(t *testing.T) {
	tr, stamps := sampleComputation(t)
	mc := core.AnalyzeTrace(tr).NewClock()
	caps := make([][]vclock.Delta, tr.Len())
	ticks := make([]int, tr.Len())
	for i := range caps {
		caps[i], ticks[i] = mc.TimestampDelta(tr.At(i), nil)
	}
	// The stream opens with a high index, which a new writer's width budget
	// makes it write full; then it seeds a thread, writes the sample's
	// first half from change sets and the second from full stamps, so
	// every kind of state is touched.
	wide := []vclock.Vector{{1}, (vclock.Vector{1}).Set(5000, 1)}
	write := func(w *DeltaWriter) error {
		for _, v := range wide {
			if err := w.Append(event.Event{Thread: 7, Object: 7}, v); err != nil {
				return err
			}
		}
		w.Seed(9, stamps[0])
		for i := 0; i < tr.Len(); i++ {
			var err error
			if i < tr.Len()/2 {
				err = w.AppendDelta(tr.At(i), caps[i], ticks[i])
			} else {
				err = w.Append(tr.At(i), stamps[i])
			}
			if err != nil {
				return err
			}
		}
		return w.Flush()
	}
	var want, got bytes.Buffer
	if err := write(NewDeltaWriterSync(&want, 4)); err != nil {
		t.Fatal(err)
	}
	w := NewDeltaWriterSync(io.Discard, 4)
	if err := write(w); err != nil {
		t.Fatal(err)
	}
	w.Reset(&got)
	if err := write(w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("a reset writer's stream differs from a new writer's")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		got.Reset()
		w.Reset(&got)
		if err := write(w); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a reset writer allocated %v times per stream", allocs)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("a writer reset again wrote a different stream")
	}
}

// TestSeedWritesFirstRecordFromChangeSet pins Seed: a thread seeded with
// its stamp going in writes its first record from a change set exactly as
// Append writes the full stamp, leaving the running vector at that stamp.
func TestSeedWritesFirstRecordFromChangeSet(t *testing.T) {
	base := vclock.Vector{4, 0, 9}
	ds := []vclock.Delta{{Index: 2, Value: 9}, {Index: 1, Value: 3}, {Index: 4, Value: 1}}
	want := base.Clone().Apply(ds)
	e := event.Event{Thread: 2, Object: 1}
	var seeded, full bytes.Buffer
	ws, wf := NewDeltaWriter(&seeded), NewDeltaWriter(&full)
	ws.Seed(e.Thread, base)
	base[0] = 100 // Seed copies
	if err := ws.AppendDelta(e, ds, 0); err != nil {
		t.Fatal(err)
	}
	if err := wf.Append(e, want); err != nil {
		t.Fatal(err)
	}
	if got := ws.threads[e.Thread].prev; !got.Equal(want) {
		t.Fatalf("running stamp = %v, want %v", got, want)
	}
	if len(ws.threads) > 7 || ws.threads[0].prev != nil {
		t.Fatal("running stamp of an unseen thread is not nil")
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := wf.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seeded.Bytes(), full.Bytes()) {
		t.Fatalf("seeded change set wrote %x, Append wrote %x", seeded.Bytes(), full.Bytes())
	}
}

// TestDeltaHighIDKeepsItsRow pins the reader's row lookup across budget
// steps. A thread or object ID at or above the stream's budget when first
// read is kept off the dense rows; once the budget has grown and a slightly
// higher ID has stretched the dense rows past it, the ID's next record must
// still find its stamp there — as a derived record, whose inputs are both
// stamps. Decoding must succeed with a fresh state and with a pooled state
// whose rows already reach past both IDs.
func TestDeltaHighIDKeepsItsRow(t *testing.T) {
	const hi = 40_000 // above the budget after the reader's first 4 KiB read
	var events []event.Event
	var stamps []vclock.Vector
	add := func(th event.ThreadID, ob event.ObjectID, v vclock.Vector) {
		events = append(events, event.Event{Index: len(events), Thread: th, Object: ob, Op: event.OpWrite})
		stamps = append(stamps, v)
	}
	add(hi, hi, vclock.Vector{1})
	// Filler past the reader's second read: budget 4096 + 8·8192 > hi+1.
	// The filler records are derived with their ticks and object implied,
	// two bytes each.
	for k := uint64(1); k <= 5000; k++ {
		add(1, 1, vclock.Vector{0, k})
	}
	add(hi+1, hi+1, vclock.Vector{0, 0, 1})
	add(hi, hi, vclock.Vector{2})
	var buf bytes.Buffer
	w := NewDeltaWriter(&buf)
	for i, e := range events {
		if err := w.Append(e, stamps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 8192 {
		t.Fatalf("stream is %d bytes; the filler must outlast two reads", buf.Len())
	}
	pooled := new(stampRows)
	pooled.thr.row(hi+8, hi+9)
	pooled.obj.row(hi+8, hi+9)
	for _, rows := range []*stampRows{nil, pooled} {
		lr, err := NewReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if rows != nil {
			rows.thr.reset()
			rows.obj.reset()
			lr.rows = rows
		}
		for i := range events {
			e, v, err := lr.Next()
			if err != nil {
				t.Fatalf("pooled=%v record %d: %v", rows != nil, i, err)
			}
			if e != events[i] || !v.Equal(stamps[i]) {
				t.Fatalf("pooled=%v record %d: %+v %v, want %+v %v", rows != nil, i, e, v, events[i], stamps[i])
			}
		}
		if _, _, err := lr.Next(); err != io.EOF {
			t.Fatalf("pooled=%v: after last record: %v", rows != nil, err)
		}
		if lr.kinds[tagDerived]+lr.kinds[kindImplied] < len(events)-3 {
			t.Fatalf("pooled=%v: %d derived records, want all but the three first appearances", rows != nil, lr.kinds[tagDerived]+lr.kinds[kindImplied])
		}
		lr.release()
	}
}

// ruleCapture runs the §III-C rule on thread stamp thr and object stamp obj
// the way the tracker captures it: the join's raises in ascending order,
// then one entry per tick, object first — so a component the join raised
// and the event then ticks appears in the capture twice. It returns the
// stamp and the capture.
func ruleCapture(thr, obj vclock.Vector, ticks ...int) (vclock.Vector, []vclock.Delta) {
	v := thr.Clone()
	var ds []vclock.Delta
	for i, x := range obj {
		if x > v.At(i) {
			v = v.Set(i, x)
			ds = append(ds, vclock.Delta{Index: int32(i), Value: x})
		}
	}
	for _, i := range ticks {
		v = v.Tick(i)
		ds = append(ds, vclock.Delta{Index: int32(i), Value: v[i]})
	}
	return v, ds
}

// lastRecordTag returns the kind of the record w assembled last.
func lastRecordTag(t *testing.T, w *DeltaWriter) uint64 {
	t.Helper()
	if len(w.buf) == 0 {
		t.Fatalf("no record assembled")
	}
	if h := w.buf[0]; h&hdrImplied == 0 {
		return uint64(h & hdrLow)
	}
	return kindImplied
}

// TestAppendDeltaDerivedRunningStamp pins AppendDelta's derived fast path,
// which applies the capture to the thread's running stamp in order and
// keeps no diff: a capture naming a component twice (a join raise, then a
// tick of it), a tick beyond the running stamp's width, and one thread
// going derived → delta (a new object) → full (a sync due), and derived
// records whose ticks are implied by the thread's or the object's previous
// record, or by both, or by neither. After every
// record the running stamp must be the materialized stamp and the record
// Append's, byte for byte, and the stream must decode to the stamps.
func TestAppendDeltaDerivedRunningStamp(t *testing.T) {
	const syncEvery = 4
	var gotBuf, wantBuf bytes.Buffer
	wd, wa := NewDeltaWriterSync(&gotBuf, syncEvery), NewDeltaWriterSync(&wantBuf, syncEvery)
	thr := map[event.ThreadID]vclock.Vector{}
	obj := map[event.ObjectID]vclock.Vector{}
	var stamps []vclock.Vector
	steps := []struct {
		th    event.ThreadID
		ob    event.ObjectID
		ticks []int
		tag   uint64
	}{
		{0, 0, []int{0}, tagFull},        // the thread's first record
		{1, 0, []int{1}, tagFull},        // the other thread's first, joining o0
		{0, 0, []int{1}, tagDerived},     // the join raises component 1, the tick raises it again
		{0, 0, []int{5}, tagDerived},     // a tick past the running stamp's width
		{0, 1, []int{0}, tagDelta},       // a new object: no derivation
		{0, 2, []int{0}, tagFull},        // a new object with the sync due
		{1, 2, []int{6, 1}, tagDerived},  // two ticks, one beyond the width, one of a raised component
		{1, 2, []int{1}, kindImplied},    // a tick among the thread's previous ticks, same object
		{0, 2, []int{1}, kindImplied},    // a tick among the object's previous ticks
		{1, 0, []int{5, 1}, kindImplied}, // one tick from each side's previous record
		{1, 0, []int{0}, tagDerived},     // a tick neither previous record made
	}
	for i, s := range steps {
		e := event.Event{Index: i, Thread: s.th, Object: s.ob}
		v, ds := ruleCapture(thr[s.th], obj[s.ob], s.ticks...)
		thr[s.th], obj[s.ob] = v, v
		stamps = append(stamps, v)
		if err := wd.AppendDelta(e, ds, len(s.ticks)); err != nil {
			t.Fatal(err)
		}
		if err := wa.Append(e, v); err != nil {
			t.Fatal(err)
		}
		if got := lastRecordTag(t, wd); got != s.tag {
			t.Fatalf("record %d written with tag %d, want %d", i, got, s.tag)
		}
		if got := wd.threads[s.th].prev; !got.Equal(v) {
			t.Fatalf("record %d: running stamp %v, want %v", i, got, v)
		}
		if !bytes.Equal(wd.buf, wa.buf) {
			t.Fatalf("record %d: AppendDelta wrote %x, Append %x", i, wd.buf, wa.buf)
		}
	}
	for _, w := range []*DeltaWriter{wd, wa} {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatalf("AppendDelta stream %x, Append stream %x", gotBuf.Bytes(), wantBuf.Bytes())
	}
	_, got, err := ReadAll(&gotBuf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range stamps {
		if !got[i].Equal(v) {
			t.Fatalf("decoded stamp %d = %v, want %v", i, got[i], v)
		}
	}
}

// TestCandidatesAreSortedUnion checks the implied-tick candidates against
// their definition — the ascending distinct union of both previous
// records' ticks — exhaustively over tick sets of up to two indices below
// 5.
func TestCandidatesAreSortedUnion(t *testing.T) {
	sets := []tickSet{noTicks}
	for i := uint64(0); i < 5; i++ {
		sets = append(sets, tickSet{i, noTick})
		for j := i + 1; j < 5; j++ {
			sets = append(sets, tickSet{i, j})
		}
	}
	for _, a := range sets {
		for _, b := range sets {
			var c [2 * maxTicks]uint64
			nc := candidates(&a, &b, &c)
			union := slices.Concat(a[:a.len()], b[:b.len()])
			slices.Sort(union)
			union = slices.Compact(union)
			if !slices.Equal(c[:nc], union) {
				t.Fatalf("candidates of %v, %v: %v, want %v", a, b, c[:nc], union)
			}
		}
	}
}
