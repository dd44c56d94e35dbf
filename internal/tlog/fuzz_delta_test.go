package tlog

import (
	"bytes"
	"testing"

	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// FuzzDeltaRoundTrip derives an arbitrary timestamped computation from the
// fuzz input (stamps need not even be valid clocks — the codec must not
// care), writes it in both formats, and requires the delta log to decode to
// exactly what the full log decodes to. Sync interval and stamp shapes come
// from the input too, so sync-point placement, width growth, width shrink
// and zeroed components all get exercised.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x41}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode a computation from the raw bytes: first byte picks the
		// sync interval, then 4-byte groups become (thread, object, op,
		// component-count) with vector values pulled from the tail.
		sync := 1
		if len(data) > 0 {
			sync = int(data[0]%9) - 1 // -1..7: exercises the <1 clamp too
			data = data[1:]
		}
		tr := event.NewTrace()
		var stamps []vclock.Vector
		for len(data) >= 4 && tr.Len() < 200 {
			tid := event.ThreadID(data[0] % 6)
			oid := event.ObjectID(data[1] % 6)
			op := event.Op(data[2] % 2)
			width := int(data[3] % 12)
			data = data[4:]
			v := make(vclock.Vector, width)
			for i := 0; i < width && len(data) > 0; i++ {
				v[i] = uint64(data[0])
				if data[0]%3 == 0 {
					v[i] = 0 // sprinkle zeros so trimming paths run
				}
				data = data[1:]
			}
			tr.Append(tid, oid, op)
			stamps = append(stamps, v)
		}

		var full, delta bytes.Buffer
		if err := WriteAll(&full, tr, stamps); err != nil {
			t.Fatalf("full write: %v", err)
		}
		dw := NewDeltaWriterSync(&delta, sync)
		for i := 0; i < tr.Len(); i++ {
			if err := dw.Append(tr.At(i), stamps[i]); err != nil {
				t.Fatalf("delta write: %v", err)
			}
		}
		if err := dw.Flush(); err != nil {
			t.Fatal(err)
		}

		fTr, fStamps, err := ReadAll(&full)
		if err != nil {
			t.Fatalf("full read: %v", err)
		}
		dTr, dStamps, err := ReadAll(&delta)
		if err != nil {
			t.Fatalf("delta read: %v", err)
		}
		if fTr.Len() != dTr.Len() || fTr.Len() != tr.Len() {
			t.Fatalf("lengths diverge: input %d, full %d, delta %d", tr.Len(), fTr.Len(), dTr.Len())
		}
		for i := 0; i < fTr.Len(); i++ {
			if fTr.At(i) != dTr.At(i) {
				t.Fatalf("event %d: full %+v, delta %+v", i, fTr.At(i), dTr.At(i))
			}
			if !fStamps[i].Equal(dStamps[i]) {
				t.Fatalf("stamp %d: full %v, delta %v", i, fStamps[i], dStamps[i])
			}
			if !fStamps[i].Equal(stamps[i]) {
				t.Fatalf("stamp %d: decoded %v, wrote %v", i, fStamps[i], stamps[i])
			}
		}
	})
}

// FuzzAppendDeltaCanonical derives a stream of raw change captures from the
// fuzz input — arbitrary assignment order, repeated indices, assignments of
// a component's current value, indices across several bitmap words — and
// requires AppendDelta to write exactly the bytes of the reference body it
// replaced and of Append over the materialized stamps.
func FuzzAppendDeltaCanonical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 2, 5, 7, 5, 7, 1, 1, 0, 9, 0, 0})
	f.Add(bytes.Repeat([]byte{0x81, 0x40, 0x03, 0x41, 0x02}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		sync := 1
		if len(data) > 0 {
			sync = int(data[0]%9) - 1
			data = data[1:]
		}
		c := newCanonicalWriters(sync)
		// Each record: a header byte (thread in the low bits, pair count in
		// the high ones), then two bytes per pair: an index (up to 199, so
		// four bitmap words) and a step — 0 assigns the current value, odd
		// steps raise it, even ones repeat the previous pair's index.
		for i := 0; len(data) > 0 && i < 200; i++ {
			h := data[0]
			data = data[1:]
			e := event.Event{Index: i, Thread: event.ThreadID(h % 5), Object: event.ObjectID(i)}
			cur := c.stamps[e.Thread]
			var ds []vclock.Delta
			for n := int(h >> 4); n > 0 && len(data) >= 2; n-- {
				idx, step := int32(data[0]%200), data[1]
				data = data[2:]
				if step != 0 && step%2 == 0 && len(ds) > 0 {
					idx = ds[len(ds)-1].Index
				}
				v := cur.At(int(idx))
				if step%2 == 1 {
					v += uint64(step)
				}
				ds = append(ds, vclock.Delta{Index: idx, Value: v})
				cur = cur.Apply(ds[len(ds)-1:])
			}
			c.append(t, e, ds, 0)
		}
		c.check(t)
	})
}
