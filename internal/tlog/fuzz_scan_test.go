package tlog

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentScan pins the stamp-free scan to the full decode. On any
// input — arbitrary bytes, and real sealed segments the fuzzer mutates — a
// SegmentReader in SkipStamps mode and one rebuilding every stamp must
// accept and reject alike, fail at the same record with the same error
// class, and agree on every event and the record tag counts; a scan never
// returns a vector. The scan also runs over an io.Reader (NewSegmentReader)
// as well as the slice, and the two sources must agree the same way: they
// parse the header through different byte sources, and everything after it
// through one decoder. The seeds are MVCLOG03 segments as DeltaWriter
// writes them, and the legacy fixtures' MVCLOG02 segments.
func FuzzSegmentScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MVCSEG01"))
	f.Add(append(magicSegment[:], 0, 0, 1, 1, 1, 3, 9))
	for _, seed := range [][]byte{
		{0x10, 0x10, 0x01, 0x11, 0x11, 0x00, 0x10, 0x01, 0x02, 0x12},
		bytes.Repeat([]byte{0x13, 0x05, 0x02, 0x15, 0x17, 0x11, 0x00, 0x03}, 20),
		bytes.Repeat([]byte{0x17, 0x01, 0x02, 0x17}, 40),
	} {
		c := deriveMixedComputation(seed)
		var payload bytes.Buffer
		w := NewDeltaWriter(&payload)
		for i, e := range c.events {
			if err := w.AppendDelta(e, c.ds[i], c.ticks[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		seg, err := AppendSegment(nil, SegmentMeta{Epoch: 1, FirstIndex: 7, Count: len(c.events)}, c.widths, payload.Bytes())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
		// The same segment plus a forged last record: derived-explicit, for
		// an object with no record before it; and, as a seed of its own,
		// plus an implied record of the first event's thread on its object
		// whose mask names every candidate.
		forged := appendRecord(bytes.Clone(payload.Bytes()), tagDerived, uint64(c.events[0].Thread), 100, 1, 0)
		implied := appendRecord(bytes.Clone(payload.Bytes()), hdrImplied|hdrLow, uint64(c.events[0].Thread), uint64(c.events[0].Object))
		widths := append(c.widths, c.widths[len(c.widths)-1])
		for _, p := range [][]byte{forged, implied} {
			seg, err = AppendSegment(nil, SegmentMeta{Epoch: 1, FirstIndex: 7, Count: len(widths)}, widths, p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seg)
		}
	}
	for _, dir := range []string{"legacy-mvclog02", "legacy-mvclog02-derived"} {
		segs, err := filepath.Glob(filepath.Join("..", "track", "testdata", dir, "*.mvcseg"))
		if err != nil || len(segs) == 0 {
			f.Fatalf("legacy fixture %s: %v", dir, err)
		}
		data, err := os.ReadFile(segs[0])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		full, errFull := NewSegmentReaderBytes(data)
		scan, errScan := NewSegmentReaderBytes(data)
		stream, errStream := NewSegmentReader(bytes.NewReader(data))
		if errorClass(errFull) != errorClass(errScan) || errorClass(errFull) != errorClass(errStream) {
			t.Fatalf("open: full %v, scan %v, stream %v", errFull, errScan, errStream)
		}
		if errFull != nil {
			return
		}
		if full.Meta() != scan.Meta() || full.Meta() != stream.Meta() {
			t.Fatalf("meta: full %+v, scan %+v, stream %+v", full.Meta(), scan.Meta(), stream.Meta())
		}
		scan.SkipStamps()
		stream.SkipStamps()
		for i := 0; ; i++ {
			ef, _, errF := full.Next()
			es, vs, errS := scan.Next()
			et, vt, errT := stream.Next()
			if errorClass(errF) != errorClass(errS) || errorClass(errF) != errorClass(errT) {
				t.Fatalf("record %d: full %v, scan %v, stream %v", i, errF, errS, errT)
			}
			if errF != nil {
				break
			}
			if ef != es || ef != et {
				t.Fatalf("record %d: full %+v, scan %+v, stream %+v", i, ef, es, et)
			}
			if vs != nil || vt != nil {
				t.Fatalf("record %d: scan returned stamps %v, %v", i, vs, vt)
			}
		}
		if full.RecordKinds() != scan.RecordKinds() || full.RecordKinds() != stream.RecordKinds() {
			t.Fatalf("tags: full %+v, scan %+v, stream %+v", full.RecordKinds(), scan.RecordKinds(), stream.RecordKinds())
		}
	})
}

// errorClass names the reader error class err belongs to, "" for none.
func errorClass(err error) string {
	switch {
	case err == nil:
		return ""
	case err == io.EOF:
		return "EOF"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrBadMagic):
		return "bad magic"
	}
	return "other: " + err.Error()
}
