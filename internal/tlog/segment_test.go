package tlog

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// sealSegment encodes a (trace, stamps) slice as a segment container, the
// way the live tracker seals its tail: delta payload via Append, widths from
// the materialized stamp lengths.
func sealSegment(t *testing.T, meta SegmentMeta, events []event.Event, stamps []vclock.Vector) []byte {
	t.Helper()
	var payload bytes.Buffer
	w := NewDeltaWriter(&payload)
	widths := make([]int, len(events))
	for i, e := range events {
		if err := w.Append(e, stamps[i]); err != nil {
			t.Fatal(err)
		}
		widths[i] = len(stamps[i])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := AppendSegment(nil, meta, widths, payload.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readSegment drains one segment, failing the test on any error.
func readSegment(t *testing.T, sr *SegmentReader) ([]event.Event, []vclock.Vector) {
	t.Helper()
	var events []event.Event
	var stamps []vclock.Vector
	for {
		e, v, err := sr.Next()
		if err == io.EOF {
			return events, stamps
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
		stamps = append(stamps, v.Clone())
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	tr, stamps := sampleComputation(t)
	meta := SegmentMeta{Epoch: 3, FirstIndex: 1000, Count: tr.Len()}
	data := sealSegment(t, meta, tr.Events(), stamps)

	sr, err := NewSegmentReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Meta() != meta {
		t.Fatalf("meta = %+v, want %+v", sr.Meta(), meta)
	}
	events, got := readSegment(t, sr)
	if len(events) != tr.Len() {
		t.Fatalf("decoded %d records, want %d", len(events), tr.Len())
	}
	for i := range events {
		want := tr.At(i)
		want.Index = meta.FirstIndex + i
		if events[i] != want {
			t.Fatalf("event %d: %+v, want %+v", i, events[i], want)
		}
		if !got[i].Equal(stamps[i]) {
			t.Fatalf("stamp %d: %v, want %v", i, got[i], stamps[i])
		}
		// The width table must restore the exact materialized length, not
		// just Compare-equality — snapshot semantics depend on it.
		if len(got[i]) != len(stamps[i]) {
			t.Fatalf("stamp %d width %d, want %d", i, len(got[i]), len(stamps[i]))
		}
	}
}

// TestSegmentWidthRuns grows the clock mid-segment so the width table holds
// several runs, including records whose stamps end in zeros (which the delta
// payload trims and only the width table can restore).
func TestSegmentWidthRuns(t *testing.T) {
	var events []event.Event
	var stamps []vclock.Vector
	v := vclock.Vector{}
	for i := 0; i < 30; i++ {
		width := 2
		if i >= 10 {
			width = 5
		}
		if i >= 20 {
			width = 9
		}
		v = v.Clone().Tick(i % 2) // only low components move: wide stamps end in zeros
		events = append(events, event.Event{Index: i, Thread: 0, Object: 0})
		stamps = append(stamps, v.Clone().Grow(width))
	}
	data := sealSegment(t, SegmentMeta{Count: len(events)}, events, stamps)
	sr, err := NewSegmentReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, got := readSegment(t, sr)
	for i := range got {
		if len(got[i]) != len(stamps[i]) || !got[i].Equal(stamps[i]) {
			t.Fatalf("stamp %d: %v (width %d), want %v (width %d)",
				i, got[i], len(got[i]), stamps[i], len(stamps[i]))
		}
	}
}

// TestSegmentsConcatenated reads a spill stream holding several segments
// through one shared bufio.Reader, as Tracker.Stream and mvc segments do.
func TestSegmentsConcatenated(t *testing.T) {
	tr, stamps := sampleComputation(t)
	half := tr.Len() / 2
	events := tr.Events()
	var file []byte
	file = append(file, sealSegment(t, SegmentMeta{Epoch: 0, FirstIndex: 0, Count: half}, events[:half], stamps[:half])...)
	file = append(file, sealSegment(t, SegmentMeta{Epoch: 1, FirstIndex: half, Count: tr.Len() - half}, events[half:], stamps[half:])...)

	br := bufio.NewReader(bytes.NewReader(file))
	var n int
	for seg := 0; ; seg++ {
		sr, err := NewSegmentReader(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
		if sr.Meta().Epoch != seg || sr.Meta().FirstIndex != n {
			t.Fatalf("segment %d meta %+v", seg, sr.Meta())
		}
		evs, got := readSegment(t, sr)
		for i := range evs {
			if evs[i].Index != n || !got[i].Equal(stamps[n]) {
				t.Fatalf("record %d of segment %d: %+v %v", i, seg, evs[i], got[i])
			}
			n++
		}
	}
	if n != tr.Len() {
		t.Fatalf("read %d records across segments, want %d", n, tr.Len())
	}
}

// TestSegmentTruncation cuts the container at every byte boundary: the
// reader must never panic, and whatever it yields before the error must be a
// correct prefix.
func TestSegmentTruncation(t *testing.T) {
	tr, stamps := sampleComputation(t)
	data := sealSegment(t, SegmentMeta{Count: tr.Len()}, tr.Events(), stamps)
	for cut := 0; cut < len(data); cut++ {
		sr, err := NewSegmentReader(bytes.NewReader(data[:cut]))
		if err != nil {
			if cut == 0 && err == io.EOF {
				continue // empty input is a clean end, not a truncation
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
				t.Fatalf("cut %d: unexpected open error %v", cut, err)
			}
			continue
		}
		var i int
		for {
			_, v, err := sr.Next()
			if err != nil {
				if err == io.EOF {
					t.Fatalf("cut %d: clean EOF from a truncated segment", cut)
				}
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("cut %d: unexpected record error %v", cut, err)
				}
				break
			}
			if !v.Equal(stamps[i]) {
				t.Fatalf("cut %d: surviving record %d decoded %v, want %v", cut, i, v, stamps[i])
			}
			i++
		}
	}
}

func TestSegmentCorruptHeader(t *testing.T) {
	tr, stamps := sampleComputation(t)
	good := sealSegment(t, SegmentMeta{Count: tr.Len()}, tr.Events(), stamps)

	t.Run("bad-magic", func(t *testing.T) {
		data := bytes.Clone(good)
		data[0] = 'X'
		if _, err := NewSegmentReader(bytes.NewReader(data)); err != ErrBadMagic {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
	})
	t.Run("runs-exceed-count", func(t *testing.T) {
		// Hand-build a header whose single width run claims more records
		// than count.
		data := append([]byte{}, magicSegment[:]...)
		data = append(data, 0, 0, 1) // epoch 0, first 0, count 1
		data = append(data, 1, 2, 3) // one run: len 2 (> count), width 3
		data = append(data, 0)       // empty payload
		if _, err := NewSegmentReader(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("count-overclaims-payload", func(t *testing.T) {
		// Reuse the good payload but claim one extra record (and widen the
		// width table to match, so the payload is what disagrees).
		var payload bytes.Buffer
		w := NewDeltaWriter(&payload)
		for i := 0; i < tr.Len(); i++ {
			if err := w.Append(tr.At(i), stamps[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		widths := make([]int, tr.Len()+1)
		for i := range widths {
			widths[i] = 4
		}
		data, err := AppendSegment(nil, SegmentMeta{Count: tr.Len() + 1}, widths, payload.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		sr, err := NewSegmentReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, _, err = sr.Next()
			if err != nil {
				break
			}
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated for over-claimed count, got %v", err)
		}
	})
	t.Run("payload-overruns-count", func(t *testing.T) {
		// Claim one record fewer than the payload holds.
		var payload bytes.Buffer
		w := NewDeltaWriter(&payload)
		for i := 0; i < tr.Len(); i++ {
			if err := w.Append(tr.At(i), stamps[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		widths := make([]int, tr.Len()-1)
		for i := range widths {
			widths[i] = 4
		}
		data, err := AppendSegment(nil, SegmentMeta{Count: tr.Len() - 1}, widths, payload.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		sr, err := NewSegmentReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, _, err = sr.Next()
			if err != nil {
				break
			}
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt for under-claimed count, got %v", err)
		}
	})
}

// TestAppendSegmentValidates pins the encoder's own argument checks.
func TestAppendSegmentValidates(t *testing.T) {
	if _, err := AppendSegment(nil, SegmentMeta{Count: 2}, []int{1}, nil); err == nil {
		t.Fatal("width/count mismatch accepted")
	}
	if _, err := AppendSegment(nil, SegmentMeta{FirstIndex: -1}, nil, nil); err == nil {
		t.Fatal("negative meta accepted")
	}
	if _, err := AppendSegment(nil, SegmentMeta{Count: 1}, []int{maxComponents + 1}, nil); err == nil {
		t.Fatal("absurd width accepted")
	}
}

// TestNextSharedMatchesNext decodes one stream through both entry points and
// requires identical reconstructions, in both wire formats.
func TestNextSharedMatchesNext(t *testing.T) {
	tr, stamps := sampleComputation(t)
	for _, format := range []string{"full", "delta"} {
		t.Run(format, func(t *testing.T) {
			var buf bytes.Buffer
			var err error
			if format == "full" {
				err = WriteAll(&buf, tr, stamps)
			} else {
				err = WriteAllDelta(&buf, tr, stamps)
			}
			if err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			a, err := NewReader(data)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewReader(data)
			if err != nil {
				t.Fatal(err)
			}
			for {
				ea, va, erra := a.Next()
				eb, vb, errb := b.NextShared()
				if (erra == nil) != (errb == nil) {
					t.Fatalf("error divergence: %v vs %v", erra, errb)
				}
				if erra != nil {
					if erra != io.EOF || errb != io.EOF {
						t.Fatalf("errors: %v vs %v", erra, errb)
					}
					return
				}
				if ea != eb || !va.Equal(vb) {
					t.Fatalf("record divergence: %+v %v vs %+v %v", ea, va, eb, vb)
				}
			}
		})
	}
}

// TestAppendDeltaByteIdenticalToAppend pins the canonicalization contract:
// feeding the writer raw change captures produces byte-for-byte the same
// stream as feeding it the materialized vectors.
func TestAppendDeltaByteIdenticalToAppend(t *testing.T) {
	tr, stamps := sampleComputation(t)
	t.Run("flat", func(t *testing.T) {
		var fromVectors bytes.Buffer
		if err := WriteAllDelta(&fromVectors, tr, stamps); err != nil {
			t.Fatal(err)
		}
		mc := core.AnalyzeTrace(tr).NewClock()
		var fromCaptures bytes.Buffer
		w := NewDeltaWriter(&fromCaptures)
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
		if !bytes.Equal(fromVectors.Bytes(), fromCaptures.Bytes()) {
			t.Fatalf("capture path wrote %d bytes differing from vector path's %d",
				fromCaptures.Len(), fromVectors.Len())
		}
	})
}
