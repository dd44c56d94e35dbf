package tlog

import (
	"bytes"
	"errors"
	"math/rand"
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
		scratch, _ = mc.TimestampDelta(tr.At(i), scratch[:0])
		if err := w.AppendDelta(tr.At(i), scratch); err != nil {
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
func TestDeltaTruncation(t *testing.T) {
	tr, stamps := sampleComputation(t)
	var buf bytes.Buffer
	if err := WriteAllDelta(&buf, tr, stamps); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	gotTr, gotStamps, err := ReadAll(bytes.NewReader(data[:len(data)-3]))
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
		if err := w.AppendDelta(tr.At(i), ds); err != nil {
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
