package tlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// Segment container (magic "MVCSEG01"): an immutable, self-contained slice
// of a timestamped computation — the unit the live tracker seals its
// per-thread arenas into at epoch barriers, holds in memory, and spills to
// disk under a track.SpillPolicy. The payload is a complete delta stream —
// MVCLOG03 as written, MVCLOG02 in older directories — in which each
// thread's first record is a full vector, and a record is derived, and its
// ticks or object implied, only from records earlier in the same segment,
// so every segment decodes without outside state and a reader keeps one
// running stamp per thread and per object it holds. A header restores
// what the delta wire format deliberately drops:
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
// equal meta.Count); payload must be a complete delta stream holding
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

// SegmentReader iterates one segment's records. It decodes from a byte
// slice: NewSegmentReaderBytes hands it a container in memory with no copy,
// while NewSegmentReader and Reset read one length-framed segment from an
// io.Reader into a buffer the reader keeps, so a stream of segments decodes
// in memory bounded by its largest segment. SkipStamps turns it into a
// scan that runs every check of a full decode and rebuilds no stamp.
type SegmentReader struct {
	meta SegmentMeta
	r    Reader
	runs []widthRun
	// run/runPos locate the next record in the width table; read counts
	// records already returned.
	run, runPos, read int
	// frame is the payload length the header declares; the payload in r
	// is shorter when its source ended early, and the reader then reports
	// ErrTruncated where the bytes run out.
	frame uint64
	// pad is the retained buffer records narrower than their clock width
	// are padded in, so steady-state iteration allocates nothing.
	pad vclock.Vector
	// buf holds the payload read from an io.Reader, reused by Reset.
	buf []byte
}

// NewSegmentReaderBytes returns an iterator over the segment container at
// the head of data. The reader borrows data, which must not change while
// it is read. io.EOF means data is empty; ErrTruncated means the header is
// cut short.
func NewSegmentReaderBytes(data []byte) (*SegmentReader, error) {
	if len(data) == 0 {
		return nil, io.EOF
	}
	if len(data) < len(magicSegment) {
		return nil, fmt.Errorf("%w: segment header", ErrTruncated)
	}
	if [8]byte(data) != magicSegment {
		return nil, ErrBadMagic
	}
	sr := new(SegmentReader)
	off := len(magicSegment)
	frame, err := sr.header(func() (uint64, error) {
		x, n := binary.Uvarint(data[off:])
		if n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		if n < 0 {
			return 0, errOverflow
		}
		off += n
		return x, nil
	})
	if err != nil {
		return nil, err
	}
	payload := data[off:]
	if uint64(len(payload)) > frame {
		payload = payload[:frame]
	}
	if err := sr.start(payload, frame); err != nil {
		return nil, err
	}
	return sr, nil
}

// NewSegmentReader reads one segment from r and returns an iterator over
// its records; see Reset.
func NewSegmentReader(r io.Reader) (*SegmentReader, error) {
	sr := new(SegmentReader)
	if err := sr.Reset(r); err != nil {
		return nil, err
	}
	return sr, nil
}

// Reset reads the next segment from r — its header, then its payload into
// the reader's retained buffer — and positions the reader at the segment's
// first record, keeping the reader's mode and buffers. io.EOF means r held
// no further segment (a clean end); ErrTruncated means the header itself
// was cut short. A payload cut short is read up to the cut. Reset reads
// exactly one container's bytes from an io.ByteReader; any other r is
// wrapped in a *bufio.Reader, which reads ahead — callers iterating
// multi-segment streams must therefore pass the same *bufio.Reader for
// every call. After an error the reader is unusable until the next
// successful Reset.
func (sr *SegmentReader) Reset(r io.Reader) error {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if !ok {
		br = bufio.NewReader(r)
	}
	var head [8]byte
	switch n, err := io.ReadFull(br, head[:]); {
	case n == 0 && err == io.EOF:
		return io.EOF
	case err == io.ErrUnexpectedEOF:
		return fmt.Errorf("%w: segment header", ErrTruncated)
	case err != nil:
		return fmt.Errorf("tlog: reading segment header: %w", err)
	}
	if head != magicSegment {
		return ErrBadMagic
	}
	frame, err := sr.header(func() (uint64, error) { return readUvarint(br) })
	if err != nil {
		return err
	}
	// The payload is framed by its length, so reading it never consumes
	// the next segment of a shared stream. The buffer grows with the bytes
	// that arrive, not with the frame, so a hostile length costs at most
	// the input's size.
	buf := sr.buf[:0]
	for uint64(len(buf)) < frame {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(frame-uint64(len(buf)), 64<<10+uint64(len(buf)))))
		}
		n, err := br.Read(buf[len(buf):min(uint64(cap(buf)), frame)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("tlog: reading segment payload: %w", err)
		}
	}
	sr.buf = buf
	return sr.start(buf, frame)
}

// readUvarint is binary.ReadUvarint with errOverflow as the error of a
// varint that does not fit in 64 bits, so the header can class it apart
// from the input ending.
func readUvarint(br io.ByteReader) (uint64, error) {
	var x uint64
	for i := range binary.MaxVarintLen64 {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errOverflow
			}
			return x | uint64(b)<<(7*i), nil
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	return 0, errOverflow
}

// header parses the container header after the magic, taking each uvarint
// from next, into the reader's meta and width runs, and returns the
// payload length the header declares. A field whose varint overflows 64
// bits is corrupt; one next cannot finish otherwise is truncated.
func (sr *SegmentReader) header(next func() (uint64, error)) (uint64, error) {
	field := func(name string, max uint64) (uint64, error) {
		x, err := next()
		if err != nil {
			class := ErrTruncated
			if err == errOverflow {
				class = ErrCorrupt
			}
			return 0, fmt.Errorf("%w: segment %s field: %v", class, name, err)
		}
		if x > max {
			return 0, fmt.Errorf("%w: segment %s %d", ErrCorrupt, name, x)
		}
		return x, nil
	}
	epoch, err := field("epoch", maxID)
	if err != nil {
		return 0, err
	}
	first, err := field("first index", maxID)
	if err != nil {
		return 0, err
	}
	count, err := field("record count", maxID)
	if err != nil {
		return 0, err
	}
	runCount, err := field("width run count", count)
	if err != nil {
		return 0, err
	}
	sr.meta = SegmentMeta{Epoch: int(epoch), FirstIndex: int(first), Count: int(count)}
	// Each run consumes at least two input bytes, so growing the run table
	// incrementally keeps allocation proportional to bytes actually read.
	sr.runs = sr.runs[:0]
	var total uint64
	for i := uint64(0); i < runCount; i++ {
		n, err := field("width run length", math.MaxUint64)
		if err != nil {
			return 0, err
		}
		w, err := field("width", maxComponents)
		if err != nil {
			return 0, err
		}
		if n == 0 || n > count-total {
			return 0, fmt.Errorf("%w: segment width runs cover %d of %d records", ErrCorrupt, total+n, count)
		}
		total += n
		sr.runs = append(sr.runs, widthRun{n: int(n), width: int(w)})
	}
	if total != count {
		return 0, fmt.Errorf("%w: segment width runs cover %d of %d records", ErrCorrupt, total, count)
	}
	return field("payload length", 1<<62)
}

// start points the record iterator at payload, the first bytes of a frame
// of the given length.
func (sr *SegmentReader) start(payload []byte, frame uint64) error {
	sr.run, sr.runPos, sr.read, sr.frame = 0, 0, 0, frame
	if uint64(len(payload)) < frame && len(payload) < len(magicDelta) {
		return sr.cut()
	}
	if err := sr.r.reset(payload); err != nil {
		return fmt.Errorf("tlog: segment payload: %w", err)
	}
	if sr.meta.Count > 0 && sr.r.version < 2 {
		return fmt.Errorf("%w: segment payload is not a delta stream", ErrCorrupt)
	}
	return nil
}

// cut reports a payload that ends before its frame does.
func (sr *SegmentReader) cut() error {
	return fmt.Errorf("%w: segment payload cut at %d of %d bytes", ErrTruncated, len(sr.r.data), sr.frame)
}

// SkipStamps makes Next check every record as a full decode does — the
// delta bases, both inputs of every derived record, tick count and order,
// the width budget, the record count against the payload — without
// rebuilding any stamp: Next then returns nil vectors. A scan accepts and
// rejects exactly the inputs a full decode does, at the same record and
// with the same error class. The mode holds across Reset; set it before
// the first Next.
func (sr *SegmentReader) SkipStamps() { sr.r.scan = true }

// Meta returns the segment's header.
func (sr *SegmentReader) Meta() SegmentMeta { return sr.meta }

// RecordKinds counts a segment's records by payload kind. Derived counts
// every derived record; Implied counts those of them whose ticks the
// header picks from the candidates (MVCLOG03), the rest carrying their
// tick indices explicitly.
type RecordKinds struct {
	Full, Delta, Derived, Implied int
}

// RecordKinds reports how many of the records returned so far were of
// each kind — after the last, the segment's kind mix.
func (sr *SegmentReader) RecordKinds() RecordKinds {
	k := &sr.r.kinds
	return RecordKinds{Full: k[tagFull], Delta: k[tagDelta], Derived: k[tagDerived] + k[kindImplied], Implied: k[kindImplied]}
}

// Ticks returns the components the record the last Next returned ticked,
// ascending in c[:n]. A derived record names them in its payload, so n is
// 1 or 2 for it; a full or delta record names none, and n is 0. By the
// §III-C rule the value a tick raises its component to first appears there
// with the record, so within an epoch the record happened before a later
// stamp v exactly when v[c[0]] reaches the record's own value there.
func (sr *SegmentReader) Ticks() (c [maxTicks]int, n int) {
	t := &sr.r.ticks
	n = t.len()
	for k := range n {
		c[k] = int(t[k])
	}
	return c, n
}

// Next returns the next record: the event (with its global trace index
// restored) and its stamp grown to the record's clock width, or nil after
// SkipStamps. The vector aliases the reader's internal state and is valid
// only until the next call; clone it to retain it. Next reports io.EOF
// after the segment's last record, ErrTruncated when the payload stops
// mid-segment, and ErrCorrupt when the payload disagrees with the header.
func (sr *SegmentReader) Next() (event.Event, vclock.Vector, error) {
	if sr.read == sr.meta.Count {
		// All records delivered; the payload must be exactly used up, or
		// the header lied about the count.
		if _, _, err := sr.r.next(true); err == nil {
			return event.Event{}, nil, fmt.Errorf("%w: segment payload holds more than %d records", ErrCorrupt, sr.meta.Count)
		} else if err != io.EOF {
			return event.Event{}, nil, fmt.Errorf("%w: trailing segment payload bytes: %v", ErrCorrupt, err)
		}
		if uint64(len(sr.r.data)) < sr.frame {
			return event.Event{}, nil, sr.cut()
		}
		// The segment is complete, so its running stamps go back to the
		// pool for the next segment decoded.
		sr.r.release()
		return event.Event{}, nil, io.EOF
	}
	e, v, err := sr.r.next(true)
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
	if len(v) < width && !sr.r.scan {
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
