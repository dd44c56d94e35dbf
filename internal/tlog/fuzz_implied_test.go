package tlog

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzImpliedTicks covers what MVCLOG03 leaves out of a record: a
// derived-implied record's ticks, which a header mask picks from the
// candidates (the ticks of the thread's and the object's previous derived
// records), and an object the same-object bit takes from the thread's
// previous record. A mixed-clock computation from the fuzz input is
// encoded through Append from the stamps and through AppendDelta from the
// change sets, which must write identical bytes; the segment must decode
// through SegmentReader to exactly the stamps at exactly their widths, and
// a SkipStamps scan must accept it with the same events and record kinds.
// Then a record chosen by corrupt is forged after the last — a mask bit at
// or beyond the candidate count, an empty mask, a mask of three
// candidates, the same-object bit on a thread's first record, or an
// implied record of a thread or an object with no record before it — and
// ReadAll, the full decode and the scan must each return every real record
// and then ErrCorrupt.
func FuzzImpliedTicks(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0x10, 0x10, 0x01, 0x11, 0x11, 0x00, 0x10, 0x01, 0x02, 0x12}, uint8(3), uint8(1))
	f.Add(bytes.Repeat([]byte{0x13, 0x05, 0x02, 0x15, 0x17, 0x11, 0x00, 0x03}, 20), uint8(90), uint8(2))
	f.Add(bytes.Repeat([]byte{0x01, 0x12, 0x14, 0x02, 0x05, 0x13}, 30), uint8(200), uint8(3))
	f.Add(bytes.Repeat([]byte{0x11, 0x10, 0x13, 0x16}, 40), uint8(40), uint8(4))
	f.Add(bytes.Repeat([]byte{0x17, 0x01, 0x02, 0x17}, 40), uint8(255), uint8(5))
	f.Add(bytes.Repeat([]byte{0x11, 0x12, 0x13, 0x14, 0x12, 0x11, 0x14, 0x13}, 25), uint8(77), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, pick, corrupt uint8) {
		c := deriveMixedComputation(data)
		n := len(c.events)
		var fromStamps, fromDeltas bytes.Buffer
		wa, wd := NewDeltaWriter(&fromStamps), NewDeltaWriter(&fromDeltas)
		for i, e := range c.events {
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
		payload := fromStamps.Bytes()
		if !bytes.Equal(payload, fromDeltas.Bytes()) {
			t.Fatalf("Append wrote %x, AppendDelta wrote %x", payload, fromDeltas.Bytes())
		}
		seg, err := AppendSegment(nil, SegmentMeta{Count: n}, c.widths, payload)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewSegmentReaderBytes(seg)
		if err != nil {
			t.Fatal(err)
		}
		events, stamps := readSegment(t, full)
		if len(events) != n {
			t.Fatalf("decoded %d of %d records", len(events), n)
		}
		for i, e := range events {
			if e != c.events[i] {
				t.Fatalf("record %d is %+v, want %+v", i, e, c.events[i])
			}
			if !stamps[i].Equal(c.stamps[i]) || len(stamps[i]) != c.widths[i] {
				t.Fatalf("record %d decoded %v, want %v at width %d", i, stamps[i], c.stamps[i], c.widths[i])
			}
		}
		scan, err := NewSegmentReaderBytes(seg)
		if err != nil {
			t.Fatal(err)
		}
		scan.SkipStamps()
		for i := 0; ; i++ {
			e, v, err := scan.Next()
			if err == io.EOF && i == n {
				break
			}
			if err != nil || i == n || e != c.events[i] || v != nil {
				t.Fatalf("scan record %d of %d: %+v %v %v", i, n, e, v, err)
			}
		}
		if full.RecordKinds() != scan.RecordKinds() {
			t.Fatalf("kinds: full %+v, scan %+v", full.RecordKinds(), scan.RecordKinds())
		}
		if n == 0 {
			return
		}

		// A thread and an object that have records in the stream, and
		// their candidates; IDs of 8 and up have none.
		e := c.events[int(pick)%n]
		var cand [2 * maxTicks]uint64
		nc := candidates(&wa.threads[e.Thread].ticks, &wa.objects[e.Object].ticks, &cand)
		fresh := 8 + uint64(corrupt)
		h, fields := byte(hdrImplied), []uint64{uint64(e.Thread), uint64(e.Object)}
		switch corrupt % 6 {
		case 0: // a mask bit at or beyond the candidate count
			if nc == len(cand) {
				h |= 0b0111 // no such bit: more than two ticks instead
			} else {
				h |= 1<<nc | corrupt>>3&(1<<nc-1)
			}
		case 1: // an empty mask
		case 2: // three candidates: more than two ticks, or beyond the count
			h |= 0b0111
		case 3: // the same-object bit on a thread's first record (full [1])
			h, fields = hdrSameObject|tagFull, []uint64{fresh, 1, 1}
		case 4: // an implied record of a thread with no record yet
			h |= 1
			fields[0] = fresh
		case 5: // an implied record of an object with no record yet
			h |= 1
			fields[1] = fresh
		}
		stream := appendRecord(append([]byte(nil), payload...), h, fields...)
		gotTr, _, err := ReadAll(bytes.NewReader(stream))
		if !errors.Is(err, ErrCorrupt) || gotTr.Len() != n {
			t.Fatalf("forged header %08b %v after %d records: read %d, err %v; want %d, ErrCorrupt", h, fields, n, gotTr.Len(), err, n)
		}
		seg, err = AppendSegment(nil, SegmentMeta{Count: n + 1}, append(c.widths, c.widths[n-1]), stream)
		if err != nil {
			t.Fatal(err)
		}
		for _, skip := range []bool{false, true} {
			sr, err := NewSegmentReaderBytes(seg)
			if err != nil {
				t.Fatal(err)
			}
			if skip {
				sr.SkipStamps()
			}
			for i := 0; i < n; i++ {
				if _, _, err := sr.Next(); err != nil {
					t.Fatalf("scan=%v: record %d before the forged one: %v", skip, i, err)
				}
			}
			if _, _, err := sr.Next(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan=%v: forged header %08b %v: err %v, want ErrCorrupt", skip, h, fields, err)
			}
		}
	})
}
