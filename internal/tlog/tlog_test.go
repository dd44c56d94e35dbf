package tlog

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

func sampleComputation(t *testing.T) (*event.Trace, []vclock.Vector) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	tr := event.NewTrace()
	for i := 0; i < 60; i++ {
		op := event.OpWrite
		if rng.Intn(3) == 0 {
			op = event.OpRead
		}
		tr.Append(event.ThreadID(rng.Intn(5)), event.ObjectID(rng.Intn(5)), op)
	}
	stamps, err := clock.RunAndValidate(tr, core.AnalyzeTrace(tr).NewClock())
	if err != nil {
		t.Fatal(err)
	}
	return tr, stamps
}

func TestRoundTrip(t *testing.T) {
	tr, stamps := sampleComputation(t)
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr, stamps); err != nil {
		t.Fatal(err)
	}
	gotTr, gotStamps, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
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

func TestEmptyStream(t *testing.T) {
	tr, stamps, err := ReadAll(bytes.NewReader(nil))
	if err != nil {
		t.Fatalf("empty stream: %v", err)
	}
	if tr.Len() != 0 || len(stamps) != 0 {
		t.Fatal("empty stream produced data")
	}
}

func TestWriterLazyHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("abandoned writer left %d bytes", buf.Len())
	}
}

func TestBadMagic(t *testing.T) {
	if _, _, err := ReadAll(bytes.NewReader([]byte("NOTALOG!data"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestTruncationRecoversPrefix(t *testing.T) {
	tr, stamps := sampleComputation(t)
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr, stamps); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Cut the log at many points; every cut must yield a clean prefix and
	// ErrTruncated (or a clean EOF exactly at record boundaries).
	for cutAt := len(magic) + 1; cutAt < len(full); cutAt += 7 {
		gotTr, gotStamps, err := ReadAll(bytes.NewReader(full[:cutAt]))
		if err != nil && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: unexpected error %v", cutAt, err)
		}
		if len(gotStamps) != gotTr.Len() {
			t.Fatalf("cut %d: %d stamps for %d events", cutAt, len(gotStamps), gotTr.Len())
		}
		for i := 0; i < gotTr.Len(); i++ {
			if gotTr.At(i) != tr.At(i) || !gotStamps[i].Equal(stamps[i]) {
				t.Fatalf("cut %d: prefix record %d corrupted", cutAt, i)
			}
		}
	}
}

func TestWriteAllLengthMismatch(t *testing.T) {
	tr, stamps := sampleComputation(t)
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr, stamps[:3]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestAppendRejectsNegative(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(event.Event{Thread: -1}, nil); err == nil {
		t.Fatal("negative thread accepted")
	}
}

func TestReaderNextSequencing(t *testing.T) {
	tr, stamps := sampleComputation(t)
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr, stamps); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		e, _, err := r.Next()
		if err == io.EOF {
			if i != tr.Len() {
				t.Fatalf("EOF after %d records, want %d", i, tr.Len())
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Index != i {
			t.Fatalf("record %d has index %d", i, e.Index)
		}
	}
}

func TestRecoveryLineFromTruncatedLog(t *testing.T) {
	// End-to-end crash story: a log truncated mid-write still yields a
	// usable computation whose stamps validate.
	tr, stamps := sampleComputation(t)
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr, stamps); err != nil {
		t.Fatal(err)
	}
	cutBytes := buf.Bytes()[:buf.Len()*2/3]
	gotTr, gotStamps, err := ReadAll(bytes.NewReader(cutBytes))
	if err != nil && !errors.Is(err, ErrTruncated) {
		t.Fatal(err)
	}
	if gotTr.Len() == 0 {
		t.Fatal("nothing recovered")
	}
	if err := clock.Validate(gotTr, gotStamps, "recovered"); err != nil {
		t.Fatalf("recovered prefix invalid: %v", err)
	}
}

func TestCorruptFieldsRejected(t *testing.T) {
	// Hand-craft records with out-of-bounds fields; the reader must report
	// ErrCorrupt rather than allocating or wrapping around.
	encode := func(fields ...uint64) []byte {
		out := append([]byte(nil), magic[:]...)
		for _, f := range fields {
			var tmp [10]byte
			n := putUvarint(tmp[:], f)
			out = append(out, tmp[:n]...)
		}
		return out
	}
	tests := []struct {
		name string
		data []byte
	}{
		{"huge thread", encode(1 << 40)},
		{"huge object", encode(1, 1<<40)},
		{"huge op", encode(1, 1, 1<<40)},
		{"huge component count", encode(1, 1, 0, 1<<40)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := ReadAll(bytes.NewReader(tt.data))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
		})
	}
}

// TestVarintOverflowIsCorrupt: a varint running past 64 bits is corrupt,
// not a stream cut short — eleven 0xff bytes and a 0x01 are a complete,
// impossible field. Every format's first field, and a segment header's,
// must read as ErrCorrupt in the full decode and in the SkipStamps scan.
func TestVarintOverflowIsCorrupt(t *testing.T) {
	over := append(bytes.Repeat([]byte{0xff}, 11), 0x01)
	for _, stream := range [][]byte{
		append(magic[:], over...),
		append(magicDelta[:], over...),
		append(append(magicCompact[:], 0), over...), // header byte, then the thread
	} {
		name := string(stream[:8])
		if _, _, err := ReadAll(bytes.NewReader(stream)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadAll: %v, want ErrCorrupt", name, err)
		}
		if name == string(magic[:]) {
			continue // not a segment payload
		}
		seg, err := AppendSegment(nil, SegmentMeta{Count: 1}, []int{1}, stream)
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
			if _, _, err := sr.Next(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s segment, scan=%v: %v, want ErrCorrupt", name, skip, err)
			}
		}
	}
	head := append(magicSegment[:], over...)
	if _, err := NewSegmentReaderBytes(head); !errors.Is(err, ErrCorrupt) {
		t.Errorf("segment header from bytes: %v, want ErrCorrupt", err)
	}
	if _, err := NewSegmentReader(bytes.NewReader(head)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("segment header from a reader: %v, want ErrCorrupt", err)
	}
}

// putUvarint is binary.PutUvarint, aliased locally for the test table.
func putUvarint(buf []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		buf[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	buf[i] = byte(x)
	return i + 1
}

func TestCompactness(t *testing.T) {
	// The binary log should be much smaller than the JSONL trace alone,
	// despite carrying the timestamps too.
	tr, stamps := sampleComputation(t)
	var bin, jsonl bytes.Buffer
	if err := WriteAll(&bin, tr, stamps); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= jsonl.Len() {
		t.Fatalf("binary log %dB not smaller than JSONL %dB", bin.Len(), jsonl.Len())
	}
}
