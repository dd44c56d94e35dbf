package tlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// Segment container (magic "MVCSEG01"): an immutable, self-contained slice
// of a timestamped computation — the unit the live tracker seals its
// per-thread arenas into at epoch barriers, holds in memory, and spills to
// disk under a track.SpillPolicy. The payload is a complete MVCLOG02 delta
// stream (each thread's first record in a segment is a full vector, and a
// record is derived only from thread and object stamps earlier in the same
// segment, so every segment decodes without outside state and a reader
// keeps one running stamp per thread and per object it holds), wrapped in a
// header that restores what the delta wire format deliberately drops:
//
//   - the global trace position (FirstIndex) and epoch of the records, so
//     stitched segments keep their place in the full computation;
//   - the clock width at each record (run-length encoded — the width only
//     moves when the component set grows), so reconstructed stamps come back
//     at the exact length the tracker's materializing snapshot would give
//     them.
//
// Layout after the 8-byte magic, all integers uvarint:
//
//	epoch | firstIndex | count | runCount | runCount × (runLen, width) |
//	payloadLen | payload
//
// Segments are self-delimiting, so spill files may hold several in sequence
// and a file truncated by a crash is readable up to the last complete
// record: a cut inside the payload surfaces as ErrTruncated from the record
// iterator with every earlier record intact, matching the log formats'
// recovery contract. The width table is also what a derived record's stamp
// is grown to: the payload rebuilds it as wide as its inputs, and the
// iterator pads it to the recorded width.

// magicSegment identifies the segment container format.
var magicSegment = [8]byte{'M', 'V', 'C', 'S', 'E', 'G', '0', '1'}

// SegmentMeta describes a sealed segment: which epoch its records belong to,
// the global trace index of its first record, and how many records it holds.
type SegmentMeta struct {
	Epoch      int
	FirstIndex int
	Count      int
}

// SegmentFileName is the canonical spill-file name for a segment: the
// global index range keeps names unique and sortable, the tracker's spill
// path and compaction's merged files both follow it, and the offline tools
// write the same names so a directory stays self-describing.
func SegmentFileName(m SegmentMeta) string {
	return fmt.Sprintf("seg-%010d-%010d.mvcseg", m.FirstIndex, m.FirstIndex+m.Count-1)
}

// String renders the meta as "epoch 2, events [100,199]".
func (m SegmentMeta) String() string {
	if m.Count == 0 {
		return fmt.Sprintf("epoch %d, empty", m.Epoch)
	}
	return fmt.Sprintf("epoch %d, events [%d,%d]", m.Epoch, m.FirstIndex, m.FirstIndex+m.Count-1)
}

// AppendSegment encodes one segment container to dst and returns the
// extended slice. widths holds the clock width at each record (len must
// equal meta.Count); payload must be a complete MVCLOG02 stream holding
// exactly meta.Count records (as produced by a DeltaWriter fed the segment's
// records in order — the caller owns that invariant; readers verify it).
func AppendSegment(dst []byte, meta SegmentMeta, widths []int, payload []byte) ([]byte, error) {
	if meta.Epoch < 0 || meta.FirstIndex < 0 || meta.Count < 0 {
		return nil, fmt.Errorf("tlog: negative segment meta %+v", meta)
	}
	if len(widths) != meta.Count {
		return nil, fmt.Errorf("tlog: %d widths for %d segment records", len(widths), meta.Count)
	}
	dst = append(dst, magicSegment[:]...)
	dst = binary.AppendUvarint(dst, uint64(meta.Epoch))
	dst = binary.AppendUvarint(dst, uint64(meta.FirstIndex))
	dst = binary.AppendUvarint(dst, uint64(meta.Count))
	// Run-length encode the widths: the clock only widens when the component
	// set grows, so a segment typically carries a handful of runs.
	var runs int
	for i := 0; i < len(widths); {
		if widths[i] < 0 || widths[i] > maxComponents {
			return nil, fmt.Errorf("tlog: segment record %d has width %d", i, widths[i])
		}
		j := i
		for j+1 < len(widths) && widths[j+1] == widths[i] {
			j++
		}
		runs++
		i = j + 1
	}
	dst = binary.AppendUvarint(dst, uint64(runs))
	for i := 0; i < len(widths); {
		j := i
		for j+1 < len(widths) && widths[j+1] == widths[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i+1))
		dst = binary.AppendUvarint(dst, uint64(widths[i]))
		i = j + 1
	}
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...), nil
}

// widthRun is one decoded run of the width table.
type widthRun struct {
	n     int
	width int
}

// SegmentReader iterates one segment's records. Open it with
// NewSegmentReader; to read a multi-segment spill file, hand the same
// *bufio.Reader to NewSegmentReader repeatedly until it reports io.EOF.
type SegmentReader struct {
	meta SegmentMeta
	r    *Reader
	lr   *io.LimitedReader
	runs []widthRun
	// run/runPos locate the next record in the width table; read counts
	// records already returned.
	run, runPos, read int
	// pad is the retained buffer records narrower than their clock width
	// are padded in, so steady-state iteration allocates nothing.
	pad vclock.Vector
}

// NewSegmentReader reads a segment header from r and returns an iterator
// over its records. io.EOF means r held no further segment (a clean end);
// ErrTruncated means the header itself was cut short. If r is not already a
// *bufio.Reader it is wrapped in one, which reads ahead — callers iterating
// multi-segment streams must therefore pass the same *bufio.Reader for
// every call.
func NewSegmentReader(r io.Reader) (*SegmentReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	head, err := br.Peek(len(magicSegment))
	if err == io.EOF && len(head) == 0 {
		return nil, io.EOF
	}
	if err == io.EOF {
		return nil, fmt.Errorf("%w: segment header", ErrTruncated)
	}
	if err != nil {
		return nil, fmt.Errorf("tlog: reading segment header: %w", err)
	}
	if [8]byte(head) != magicSegment {
		return nil, ErrBadMagic
	}
	if _, err := br.Discard(len(magicSegment)); err != nil {
		return nil, fmt.Errorf("tlog: discarding segment header: %w", err)
	}
	field := func(name string) (uint64, error) {
		x, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("%w: segment %s field: %v", ErrTruncated, name, err)
		}
		return x, nil
	}
	bounded := func(name string, max uint64) (uint64, error) {
		x, err := field(name)
		if err != nil {
			return 0, err
		}
		if x > max {
			return 0, fmt.Errorf("%w: segment %s %d", ErrCorrupt, name, x)
		}
		return x, nil
	}
	epoch, err := bounded("epoch", maxID)
	if err != nil {
		return nil, err
	}
	first, err := bounded("first index", maxID)
	if err != nil {
		return nil, err
	}
	count, err := bounded("record count", maxID)
	if err != nil {
		return nil, err
	}
	runCount, err := bounded("width run count", count)
	if err != nil {
		return nil, err
	}
	sr := &SegmentReader{meta: SegmentMeta{Epoch: int(epoch), FirstIndex: int(first), Count: int(count)}}
	// Each run consumes at least two input bytes, so growing the run table
	// incrementally keeps allocation proportional to bytes actually read.
	var total uint64
	for i := uint64(0); i < runCount; i++ {
		n, err := field("width run length")
		if err != nil {
			return nil, err
		}
		w, err := bounded("width", maxComponents)
		if err != nil {
			return nil, err
		}
		total += n
		if n == 0 || total > count {
			return nil, fmt.Errorf("%w: segment width runs cover %d of %d records", ErrCorrupt, total, count)
		}
		sr.runs = append(sr.runs, widthRun{n: int(n), width: int(w)})
	}
	if total != count {
		return nil, fmt.Errorf("%w: segment width runs cover %d of %d records", ErrCorrupt, total, count)
	}
	payloadLen, err := bounded("payload length", 1<<62)
	if err != nil {
		return nil, err
	}
	// The payload is framed by its length, so the record iterator can never
	// read past the segment, and a trailing segment in the same stream stays
	// reachable after this one is drained.
	sr.lr = &io.LimitedReader{R: br, N: int64(payloadLen)}
	inner, err := NewReader(sr.lr)
	if err != nil {
		return nil, fmt.Errorf("tlog: segment payload: %w", err)
	}
	if count > 0 && !inner.delta {
		return nil, fmt.Errorf("%w: segment payload is not a delta stream", ErrCorrupt)
	}
	sr.r = inner
	return sr, nil
}

// Meta returns the segment's header.
func (sr *SegmentReader) Meta() SegmentMeta { return sr.meta }

// RecordKinds counts a segment's records by payload kind.
type RecordKinds struct {
	Full, Delta, Derived int
}

// RecordKinds reports how many of the records returned so far were full,
// delta and derived records — after the last, the segment's tag mix.
func (sr *SegmentReader) RecordKinds() RecordKinds {
	t := &sr.r.tags
	return RecordKinds{Full: t[tagFull], Delta: t[tagDelta], Derived: t[tagDerived]}
}

// Next returns the next record: the event (with its global trace index
// restored) and its stamp grown to the record's clock width. The vector
// aliases the reader's internal state and is valid only until the next call;
// clone it to retain it. Next reports io.EOF after the segment's last
// record, ErrTruncated when the payload stops mid-segment, and ErrCorrupt
// when the payload disagrees with the header.
func (sr *SegmentReader) Next() (event.Event, vclock.Vector, error) {
	if sr.read == sr.meta.Count {
		// All records delivered; the payload must be exactly used up, or
		// the header lied about the count. Probing the inner reader (rather
		// than checking the length frame) also drains the frame, leaving a
		// shared *bufio.Reader positioned at the next segment.
		if _, _, err := sr.r.NextShared(); err == nil {
			return event.Event{}, nil, fmt.Errorf("%w: segment payload holds more than %d records", ErrCorrupt, sr.meta.Count)
		} else if err != io.EOF {
			return event.Event{}, nil, fmt.Errorf("%w: trailing segment payload bytes: %v", ErrCorrupt, err)
		}
		// The segment is complete, so its running stamps go back to the
		// pool for the next segment decoded.
		sr.r.release()
		return event.Event{}, nil, io.EOF
	}
	e, v, err := sr.r.NextShared()
	if err == io.EOF {
		// The payload ran out before the promised record count.
		return event.Event{}, nil, fmt.Errorf("%w: segment payload ends after %d of %d records", ErrTruncated, sr.read, sr.meta.Count)
	}
	if err != nil {
		return event.Event{}, nil, err
	}
	e.Index = sr.meta.FirstIndex + sr.read
	width := sr.runs[sr.run].width
	sr.runPos++
	if sr.runPos == sr.runs[sr.run].n {
		sr.run, sr.runPos = sr.run+1, 0
	}
	sr.read++
	if len(v) < width {
		// Pad to the recorded clock width in the retained buffer (the
		// reconstruction state's own storage grows exactly, so growing it
		// per record would allocate per record).
		sr.pad = sr.pad.Grow(width)
		n := copy(sr.pad, v)
		for i := n; i < width; i++ {
			sr.pad[i] = 0
		}
		v = sr.pad[:width]
	}
	return e, v, nil
}
