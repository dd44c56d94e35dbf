// Package tlog implements a compact binary log of timestamped events — the
// persistence format for computations whose timestamps should survive the
// process (post-mortem debugging, recovery lines after a crash).
//
// Two wire formats share the record framing and truncation semantics, and
// Reader auto-detects which one a stream carries:
//
//   - Full (magic "MVCLOG01", Writer/WriteAll): one record per event,
//     uvarint thread | object | op | canonical vector, where the vector is
//     a uvarint component count followed by uvarint components (trailing
//     zeros trimmed, as in vclock's codec).
//   - Delta (magic "MVCLOG02", DeltaWriter/WriteAllDelta): records carry
//     only the (index, value) pairs that changed against the same thread's
//     previous record, with full-vector sync points every SyncEvery records
//     per thread; see delta.go. On wide clocks with causal locality the
//     stream shrinks by roughly width ÷ changes-per-event.
//
// Records are self-delimiting in both formats, so a log truncated by a
// crash is readable up to the last complete record; ReadAll returns the
// readable prefix together with ErrTruncated, which is exactly what failure
// recovery wants.
package tlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// magic identifies the format and its version.
var magic = [8]byte{'M', 'V', 'C', 'L', 'O', 'G', '0', '1'}

// Errors returned by readers.
var (
	// ErrBadMagic means the input is not a tlog stream.
	ErrBadMagic = errors.New("tlog: bad magic header")
	// ErrTruncated means the stream ended mid-record; data read up to the
	// previous record is valid.
	ErrTruncated = errors.New("tlog: truncated record")
	// ErrCorrupt means a record carries an out-of-bounds field (e.g. an
	// absurd thread ID or component count); data read up to the previous
	// record is valid.
	ErrCorrupt = errors.New("tlog: corrupt record")
)

// Field bounds: IDs and vector widths beyond these indicate corruption, not
// a legitimately huge system, and guard the reader against allocating
// attacker-controlled amounts of memory.
const (
	maxID         = 1<<31 - 1
	maxOp         = 1 << 16
	maxComponents = 1 << 24
)

// Delta-format width budget: a delta pair names an absolute component
// index, so unlike the full format a few-byte record could demand a huge
// reconstruction up front. The reader only accepts indices below
// deltaBudgetBase + deltaBudgetFactor × (bytes read so far), which keeps
// reconstruction memory proportional to input size; the writer checks the
// same inequality against bytes written and falls back to a full record —
// which pays for its width in stream bytes, replenishing the budget — when
// a pair would exceed it.
const (
	deltaBudgetBase   = 1 << 12
	deltaBudgetFactor = 8
)

// deltaBudget is the largest component index a delta pair may name after n
// stream bytes.
func deltaBudget(n int64) uint64 {
	return uint64(deltaBudgetBase + deltaBudgetFactor*n)
}

// Writer appends timestamped events to a stream. Call Flush before closing
// the underlying writer.
type Writer struct {
	w       *bufio.Writer
	started bool
	buf     []byte
}

// NewWriter returns a Writer on w. The magic header is written lazily on
// the first Append, so an abandoned Writer leaves no bytes behind.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Append writes one record.
func (w *Writer) Append(e event.Event, v vclock.Vector) error {
	if e.Thread < 0 || e.Object < 0 || e.Op < 0 {
		return fmt.Errorf("tlog: negative field in event %v", e)
	}
	if !w.started {
		if _, err := w.w.Write(magic[:]); err != nil {
			return fmt.Errorf("tlog: writing header: %w", err)
		}
		w.started = true
	}
	w.buf = w.buf[:0]
	w.buf = binary.AppendUvarint(w.buf, uint64(e.Thread))
	w.buf = binary.AppendUvarint(w.buf, uint64(e.Object))
	w.buf = binary.AppendUvarint(w.buf, uint64(e.Op))
	w.buf = v.AppendBinary(w.buf)
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("tlog: writing record: %w", err)
	}
	return nil
}

// Flush pushes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("tlog: flushing: %w", err)
	}
	return nil
}

// Reader iterates a tlog stream in either format: the magic header decides
// whether records carry full vectors (version 01) or per-thread deltas with
// sync-point fallbacks (version 02), and Next reconstructs full vectors
// transparently either way.
type Reader struct {
	r     *bufio.Reader
	index int
	// delta is set for version-02 streams; prev then holds the running
	// per-thread reconstruction state, and count meters the raw input so
	// reconstruction width stays proportional to bytes actually read (the
	// delta-format analogue of fullVector's incremental growth guard).
	delta bool
	prev  map[event.ThreadID]vclock.Vector
	count *countingReader
	// scratch is the retained decode buffer NextShared reconstructs full
	// vectors into, so steady-state shared reads allocate nothing.
	scratch vclock.Vector
}

// countingReader meters bytes pulled from the underlying stream (bufio
// read-ahead included, which only ever makes the budget more generous by a
// bounded constant).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// NewReader validates the magic header and returns a Reader. An empty
// stream (no header at all) yields a Reader that immediately reports
// io.EOF, matching the lazy-header Writers.
func NewReader(r io.Reader) (*Reader, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	head, err := br.Peek(len(magic))
	if err == io.EOF && len(head) == 0 {
		return &Reader{r: br, count: cr}, nil
	}
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("tlog: reading header: %w", err)
	}
	lr := &Reader{r: br, count: cr}
	switch {
	case bytes.Equal(head, magic[:]):
	case bytes.Equal(head, magicDelta[:]):
		lr.delta = true
		lr.prev = make(map[event.ThreadID]vclock.Vector)
	default:
		return nil, ErrBadMagic
	}
	if _, err := br.Discard(len(magic)); err != nil {
		return nil, fmt.Errorf("tlog: discarding header: %w", err)
	}
	return lr, nil
}

// Next returns the next record. It reports io.EOF at a clean end of stream
// and ErrTruncated when the stream stops mid-record. The returned vector is
// an independent copy.
func (r *Reader) Next() (event.Event, vclock.Vector, error) {
	return r.next(false)
}

// NextShared is Next without the defensive copies: the returned vector
// aliases the reader's internal reconstruction state and is valid only until
// the next call (in either form). Steady-state shared reads allocate nothing
// beyond the per-thread state the format requires, which is what lets bulk
// consumers — the live tracker's segment streaming, log rewriters — iterate
// a stream with allocation cost independent of its length.
func (r *Reader) NextShared() (event.Event, vclock.Vector, error) {
	return r.next(true)
}

func (r *Reader) next(shared bool) (event.Event, vclock.Vector, error) {
	t, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return event.Event{}, nil, io.EOF // clean boundary
	}
	if err != nil {
		return event.Event{}, nil, fmt.Errorf("%w: thread field: %v", ErrTruncated, err)
	}
	if t > maxID {
		return event.Event{}, nil, fmt.Errorf("%w: thread ID %d", ErrCorrupt, t)
	}
	o, err := r.field("object")
	if err != nil {
		return event.Event{}, nil, err
	}
	if o > maxID {
		return event.Event{}, nil, fmt.Errorf("%w: object ID %d", ErrCorrupt, o)
	}
	op, err := r.field("op")
	if err != nil {
		return event.Event{}, nil, err
	}
	if op > maxOp {
		return event.Event{}, nil, fmt.Errorf("%w: op %d", ErrCorrupt, op)
	}
	var v vclock.Vector
	if r.delta {
		v, err = r.deltaPayload(event.ThreadID(t), shared)
	} else {
		v, err = r.fullVector(shared)
	}
	if err != nil {
		return event.Event{}, nil, err
	}
	e := event.Event{
		Index:  r.index,
		Thread: event.ThreadID(t),
		Object: event.ObjectID(o),
		Op:     event.Op(op),
	}
	r.index++
	return e, v, nil
}

// fullVector decodes a canonical vector payload (format 01, and format 02
// sync records). In shared mode the result lives in the reader's retained
// scratch buffer.
func (r *Reader) fullVector(shared bool) (vclock.Vector, error) {
	n, err := r.field("component count")
	if err != nil {
		return nil, err
	}
	if n > maxComponents {
		return nil, fmt.Errorf("%w: component count %d", ErrCorrupt, n)
	}
	// Grow incrementally: each component consumes at least one input byte,
	// so a lying count cannot force a large allocation up front.
	var v vclock.Vector
	if shared {
		v = r.scratch[:0]
	} else {
		v = make(vclock.Vector, 0, min(n, 64))
	}
	for i := uint64(0); i < n; i++ {
		x, err := r.field("component")
		if err != nil {
			return nil, err
		}
		v = append(v, x)
	}
	if shared {
		r.scratch = v
	}
	return v, nil
}

// deltaPayload decodes a format-02 payload for thread t, reconstructing the
// full vector from the thread's running state. In shared mode the result
// aliases that state instead of being cloned out of it.
func (r *Reader) deltaPayload(t event.ThreadID, shared bool) (vclock.Vector, error) {
	tag, err := r.field("tag")
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagFull:
		v, err := r.fullVector(shared)
		if err != nil {
			return nil, err
		}
		if !shared {
			r.prev[t] = v.Clone()
			return v, nil
		}
		// Absorb the sync vector into the retained per-thread state in
		// place (zeroing any components beyond the canonical encoding's
		// trimmed tail) and hand the caller the state itself.
		p := growState(r.prev[t], len(v))
		copy(p, v)
		for i := len(v); i < len(p); i++ {
			p[i] = 0
		}
		r.prev[t] = p
		return p, nil
	case tagDelta:
		// The writer emits a full vector as every thread's first record,
		// so a delta with no base to apply to is proof of corruption (or a
		// spliced stream) — reconstructing from zero would fabricate
		// timestamps without any error.
		v, seeded := r.prev[t]
		if !seeded {
			return nil, fmt.Errorf("%w: delta record for thread %d before any full record", ErrCorrupt, t)
		}
		n, err := r.field("pair count")
		if err != nil {
			return nil, err
		}
		if n > maxComponents {
			return nil, fmt.Errorf("%w: pair count %d", ErrCorrupt, n)
		}
		// Apply in place on the running state (nothing else aliases it;
		// full records store a private clone) and hand the caller a copy.
		for i := uint64(0); i < n; i++ {
			idx, err := r.field("pair index")
			if err != nil {
				return nil, err
			}
			// Full records cap the width at maxComponents, so the largest
			// legal index is maxComponents-1 — keep the formats' limits
			// consistent.
			if idx >= maxComponents {
				return nil, fmt.Errorf("%w: component index %d", ErrCorrupt, idx)
			}
			// Reconstruction memory must stay proportional to input size;
			// DeltaWriter maintains the same inequality against bytes
			// written (falling back to full records when needed), so
			// anything it produced passes, while a hostile few-byte
			// record asking for a 2²⁴-wide vector is refused.
			if idx >= deltaBudget(r.count.n) {
				return nil, fmt.Errorf("%w: component index %d exceeds stream budget", ErrCorrupt, idx)
			}
			x, err := r.field("pair value")
			if err != nil {
				return nil, err
			}
			if int(idx) >= len(v) {
				v = growState(v, int(idx)+1)
			}
			v[idx] = x
		}
		r.prev[t] = v
		if shared {
			return v, nil
		}
		return v.Clone(), nil
	default:
		return nil, fmt.Errorf("%w: record tag %d", ErrCorrupt, tag)
	}
}

// growState returns the running per-thread state v with at least n
// components. The state is private to its reader or writer, so when it
// must reallocate it leaves room to double: a thread whose width creeps up
// one component at a time then reallocates O(log width) times, not once
// per component.
func growState(v vclock.Vector, n int) vclock.Vector {
	if n <= cap(v) {
		return v.Grow(n)
	}
	g := make(vclock.Vector, n, max(n, 2*cap(v)))
	copy(g, v)
	return g
}

func (r *Reader) field(name string) (uint64, error) {
	x, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, fmt.Errorf("%w: %s field: %v", ErrTruncated, name, err)
	}
	return x, nil
}

// WriteAll writes a whole timestamped computation.
func WriteAll(w io.Writer, tr *event.Trace, stamps []vclock.Vector) error {
	if len(stamps) != tr.Len() {
		return fmt.Errorf("tlog: %d stamps for %d events", len(stamps), tr.Len())
	}
	lw := NewWriter(w)
	for i := 0; i < tr.Len(); i++ {
		if err := lw.Append(tr.At(i), stamps[i]); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// ReadAll reads every complete record. On truncation it returns the
// readable prefix together with an error wrapping ErrTruncated, so crash
// recovery can proceed with what survived.
func ReadAll(r io.Reader) (*event.Trace, []vclock.Vector, error) {
	lr, err := NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	tr := event.NewTrace()
	var stamps []vclock.Vector
	for {
		e, v, err := lr.Next()
		if err == io.EOF {
			return tr, stamps, nil
		}
		if err != nil {
			return tr, stamps, err
		}
		tr.Append(e.Thread, e.Object, e.Op)
		stamps = append(stamps, v)
	}
}
