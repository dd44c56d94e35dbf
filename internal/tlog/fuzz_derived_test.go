package tlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// mixedComputation is a computation stamped by the §III-C update rule the
// way the live tracker runs it: each event's change set against its
// thread's previous stamp (the join's raises in ascending order, then the
// ticks, object first), its tick count, its stamp and the clock width at
// the event.
type mixedComputation struct {
	events []event.Event
	stamps []vclock.Vector
	ds     [][]vclock.Delta
	ticks  []int
	widths []int
}

// deriveMixedComputation decodes a mixed-clock computation from raw bytes,
// two per event: thread and object IDs (up to 8 of each) from the low
// bits, and from bit 4 whether an endpoint seen for the first time becomes
// a clock component — components join the clock as they are first chosen,
// so the width grows mid-computation, as online reveals grow it. An event
// neither of whose endpoints is a component makes its thread one, so every
// event is covered.
func deriveMixedComputation(data []byte) mixedComputation {
	var c mixedComputation
	thrComp := map[event.ThreadID]int{}
	objComp := map[event.ObjectID]int{}
	thr := map[event.ThreadID]vclock.Vector{}
	obj := map[event.ObjectID]vclock.Vector{}
	width := 0
	for len(data) >= 2 && len(c.events) < 300 {
		b0, b1 := data[0], data[1]
		data = data[2:]
		th, ob := event.ThreadID(b0%8), event.ObjectID(b1%8)
		if _, ok := thrComp[th]; !ok && b0&0x10 != 0 {
			thrComp[th], width = width, width+1
		}
		if _, ok := objComp[ob]; !ok && b1&0x10 != 0 {
			objComp[ob], width = width, width+1
		}
		ti, tok := thrComp[th]
		oi, ook := objComp[ob]
		if !tok && !ook {
			thrComp[th], width = width, width+1
			ti, tok = thrComp[th], true
		}
		t, o := thr[th], obj[ob]
		v := t.Clone()
		var ds []vclock.Delta
		for i, x := range o {
			if x > v.At(i) {
				v = v.Set(i, x)
				ds = append(ds, vclock.Delta{Index: int32(i), Value: x})
			}
		}
		nt := 0
		for _, k := range [...]struct {
			idx     int
			covered bool
		}{{oi, ook}, {ti, tok}} {
			if k.covered {
				v = v.Tick(k.idx)
				ds = append(ds, vclock.Delta{Index: int32(k.idx), Value: v[k.idx]})
				nt++
			}
		}
		v = v.Grow(width)
		thr[th], obj[ob] = v, v.Clone()
		c.events = append(c.events, event.Event{Index: len(c.events), Thread: th, Object: ob, Op: event.Op(b1 >> 5 & 1)})
		c.stamps = append(c.stamps, v.Clone())
		c.ds = append(c.ds, ds)
		c.ticks = append(c.ticks, nt)
		c.widths = append(c.widths, width)
	}
	return c
}

// FuzzDerivedRecord covers the derived record tag. A mixed-clock
// computation from the fuzz input is cut into two segments, and each is
// encoded twice: through Append from the stamps, and through AppendDelta
// from the change sets with their tick counts, the second segment's writer
// seeded with every thread's stamp at the cut as a seal seeds it. The two
// encodings must be byte-identical, decode through SegmentReader to exactly
// the stamps at exactly their widths, and hold a non-derived record only
// where a thread or an object first appears in the segment. Then a forged
// record chosen by corrupt is appended to the first segment's payload — a
// derived record before its thread or its object has a record, a tick
// count outside 1–2, a duplicate tick index, or a tick index beyond the
// width budget — and the reader must return every real record and then
// ErrCorrupt.
func FuzzDerivedRecord(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0x10, 0x10, 0x01, 0x11, 0x11, 0x00, 0x10, 0x01, 0x02, 0x12}, uint8(128), uint8(1))
	f.Add(bytes.Repeat([]byte{0x13, 0x05, 0x02, 0x15, 0x17, 0x11, 0x00, 0x03}, 20), uint8(90), uint8(2))
	f.Add(bytes.Repeat([]byte{0x01, 0x12, 0x14, 0x02, 0x05, 0x13}, 30), uint8(200), uint8(3))
	f.Add(bytes.Repeat([]byte{0x11, 0x10, 0x13, 0x16}, 40), uint8(40), uint8(4))
	f.Add(bytes.Repeat([]byte{0x17, 0x01, 0x02, 0x17}, 40), uint8(255), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, cutFrac, corrupt uint8) {
		c := deriveMixedComputation(data)
		n := len(c.events)
		cut := n * int(cutFrac) / 256
		var firstPayload []byte
		for _, r := range [][2]int{{0, cut}, {cut, n}} {
			lo, hi := r[0], r[1]
			var fromStamps, fromDeltas bytes.Buffer
			wa, wd := NewDeltaWriter(&fromStamps), NewDeltaWriter(&fromDeltas)
			for i := 0; i < lo; i++ {
				wd.Seed(c.events[i].Thread, c.stamps[i])
			}
			firsts := 0
			thrSeen, objSeen := map[event.ThreadID]bool{}, map[event.ObjectID]bool{}
			for i := lo; i < hi; i++ {
				e := c.events[i]
				if !thrSeen[e.Thread] || !objSeen[e.Object] {
					firsts++
				}
				thrSeen[e.Thread], objSeen[e.Object] = true, true
				if err := wa.Append(e, c.stamps[i]); err != nil {
					t.Fatal(err)
				}
				if err := wd.AppendDelta(e, c.ds[i], c.ticks[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := wa.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := wd.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fromStamps.Bytes(), fromDeltas.Bytes()) {
				t.Fatalf("events [%d,%d): Append wrote %x, AppendDelta wrote %x", lo, hi, fromStamps.Bytes(), fromDeltas.Bytes())
			}
			meta := SegmentMeta{FirstIndex: lo, Count: hi - lo}
			seg, err := AppendSegment(nil, meta, c.widths[lo:hi], fromStamps.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			sr, err := NewSegmentReader(bytes.NewReader(seg))
			if err != nil {
				t.Fatal(err)
			}
			events, stamps := readSegment(t, sr)
			if len(events) != hi-lo {
				t.Fatalf("segment [%d,%d) decoded %d records", lo, hi, len(events))
			}
			for k, e := range events {
				i := lo + k
				if e != c.events[i] {
					t.Fatalf("record %d is %+v, want %+v", i, e, c.events[i])
				}
				if !stamps[k].Equal(c.stamps[i]) || len(stamps[k]) != c.widths[i] {
					t.Fatalf("record %d decoded %v, want %v at width %d", i, stamps[k], c.stamps[i], c.widths[i])
				}
			}
			if kinds := sr.RecordKinds(); kinds.Full+kinds.Delta != firsts || kinds.Derived != hi-lo-firsts {
				t.Fatalf("segment [%d,%d): %+v, want %d derived and %d first appearances", lo, hi, kinds, hi-lo-firsts, firsts)
			}
			if lo == 0 {
				firstPayload = fromStamps.Bytes()
			}
		}
		if cut == 0 || corrupt%6 == 0 {
			return
		}

		// A thread and an object that have records in the stream.
		e := c.events[0]
		forged := []uint64{uint64(e.Thread), uint64(e.Object), 0, tagDerived}
		switch corrupt % 6 {
		case 1: // thread with no record yet
			forged[0] = 8 + uint64(corrupt)
			forged = append(forged, 1, 0)
		case 2: // object with no record yet
			forged[1] = 8 + uint64(corrupt)
			forged = append(forged, 1, 0)
		case 3: // tick count 0, or 3 and up
			forged = append(forged, uint64(corrupt/6%2)*(3+uint64(corrupt/12)), 0, 1, 2)
		case 4: // the same tick index twice
			k := uint64(corrupt / 6 % 4)
			forged = append(forged, 2, k, k)
		case 5: // a tick index past the width budget
			forged = append(forged, 1, uint64(deltaBudget(int64(len(firstPayload)+64))))
		}
		stream := append([]byte(nil), firstPayload...)
		for _, x := range forged {
			stream = binary.AppendUvarint(stream, x)
		}
		gotTr, _, err := ReadAll(bytes.NewReader(stream))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("forged record %v: err %v, want ErrCorrupt", forged, err)
		}
		if gotTr.Len() != cut {
			t.Fatalf("forged record %v: %d records before it, want %d", forged, gotTr.Len(), cut)
		}
	})
}
