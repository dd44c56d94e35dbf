// Package tlog implements a compact binary log of timestamped events — the
// persistence format for computations whose timestamps should survive the
// process (post-mortem debugging, recovery lines after a crash).
//
// The wire formats share the truncation semantics, and Reader
// auto-detects which one a stream carries:
//
//   - Full (magic "MVCLOG01", Writer/WriteAll): one record per event,
//     uvarint thread | object | op | canonical vector, where the vector is
//     a uvarint component count followed by uvarint components (trailing
//     zeros trimmed, as in vclock's codec).
//   - Delta (magic "MVCLOG03", DeltaWriter/WriteAllDelta): a record whose
//     thread and object have both appeared is derived — the §III-C rule
//     derives the stamp as tick(join) of the thread's and the object's
//     previous stamps, so the record carries only which components the
//     event ticked — and the rest carry the (index, value) pairs that
//     changed against the same thread's previous record, with full-vector
//     sync points every SyncEvery records per thread; see delta.go. A
//     record opens with a header byte holding its kind, its op and
//     whether its object is its thread's previous one; a derived record
//     whose ticks its thread's or its object's previous record also made
//     names them with a mask in that byte. A derived record is a header
//     byte, a thread ID and, about half the time, an object ID, so a live
//     tracker's stream holds about 4 B per event whatever the width.
//   - MVCLOG02, the delta format before the header byte (uvarint thread |
//     object | op | tag | payload, derived records listing their ticks),
//     is still read, so older logs and spill directories open.
//
// Records are self-delimiting in every format, so a log truncated by a
// crash is readable up to the last complete record; ReadAll returns the
// readable prefix together with ErrTruncated, which is exactly what failure
// recovery wants. A field no stream could hold — an out-of-range ID, a
// varint past 64 bits — is ErrCorrupt instead.
//
// One decoder reads every stream: Reader parses records straight from a
// byte slice with binary.Uvarint, and SegmentReader hands it a segment's
// payload — a container already in memory with no copy, one read from an
// io.Reader through a buffer it reuses segment after segment. Every bound
// the decoder enforces is counted in bytes consumed, the delta format's
// width budget included. A scan mode (SegmentReader.SkipStamps) runs every
// check of a full decode and rebuilds no stamp, so verifying a segment
// costs a parse of its records, not O(width) per record.
package tlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"

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
// deltaBudgetBase + deltaBudgetFactor × (stream bytes consumed so far,
// magic included), which keeps reconstruction memory proportional to input
// size; the writer checks the same inequality against the bytes it wrote
// before the record and falls back to a full record — which pays for its
// width in stream bytes, replenishing the budget — when a pair would
// exceed it. A reader has consumed at least those bytes when it meets the
// index, so every stream a writer produced passes.
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

// Reader iterates a tlog stream in any format: the magic header decides
// whether records carry full vectors (version 01) or deltas and derived
// records against running per-thread and per-object stamps (versions 02
// and 03), and Next reconstructs full vectors transparently either way.
//
// A Reader parses a stream held whole in memory, with binary.Uvarint over
// the byte slice, and copies nothing out of it; its width budget is
// deltaBudget of the stream offset reached.
type Reader struct {
	data []byte
	off  int
	// index is the next record's position in the stream.
	index int
	// version is the stream's format version, 1–3 (0 before a header).
	// From version 2 on, rows holds the running per-thread and per-object
	// reconstruction state, taken from a pool on the first record, so it
	// is reused stream after stream.
	version int
	rows    *stampRows
	// scan makes a delta reader run every check on every record without
	// rebuilding stamps: Next then returns nil vectors, and the rows track
	// only which threads and objects have appeared, with their previous
	// records' objects and ticks.
	scan bool
	// scratch is the retained decode buffer NextShared reconstructs full
	// vectors into, so steady-state shared reads allocate nothing.
	scratch vclock.Vector
	// kinds counts the delta records decoded so far by kind.
	kinds [kindImplied + 1]int
}

// NewReader validates the magic header of the stream data and returns a
// Reader over it. Empty data (no header at all) yields a Reader that
// immediately reports io.EOF, matching the lazy-header Writers. The Reader
// borrows data; the caller must not modify it while reading.
func NewReader(data []byte) (*Reader, error) {
	r := new(Reader)
	if err := r.reset(data); err != nil {
		return nil, err
	}
	return r, nil
}

// reset points the reader at a new stream, keeping its mode and buffers.
func (r *Reader) reset(data []byte) error {
	r.data, r.off, r.index, r.version, r.kinds = data, 0, 0, 0, [kindImplied + 1]int{}
	if r.rows != nil {
		r.rows.thr.reset()
		r.rows.obj.reset()
	}
	if len(data) == 0 {
		return nil
	}
	if len(data) < len(magic) {
		return ErrBadMagic
	}
	switch [8]byte(data) {
	case magic:
		r.version = 1
	case magicDelta:
		r.version = 2
	case magicCompact:
		r.version = 3
	default:
		return ErrBadMagic
	}
	r.off = len(magic)
	return nil
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
	if r.off == len(r.data) {
		return event.Event{}, nil, io.EOF // clean boundary
	}
	var (
		e   event.Event
		v   vclock.Vector
		err error
	)
	if r.version == 3 {
		e, v, err = r.compactRecord(shared)
	} else {
		e, v, err = r.taggedRecord(shared)
	}
	if err != nil {
		return event.Event{}, nil, err
	}
	e.Index = r.index
	r.index++
	return e, v, nil
}

// taggedRecord decodes a version-01 or -02 record: thread, object and op
// fields, then a full vector (01) or a tag and its payload (02).
func (r *Reader) taggedRecord(shared bool) (event.Event, vclock.Vector, error) {
	t, err := r.id("thread")
	if err != nil {
		return event.Event{}, nil, err
	}
	o, err := r.id("object")
	if err != nil {
		return event.Event{}, nil, err
	}
	op, err := r.op()
	if err != nil {
		return event.Event{}, nil, err
	}
	var v vclock.Vector
	if r.version == 1 {
		v, err = r.fullVector(shared)
	} else {
		var tag uint64
		if tag, err = r.field("tag"); err != nil {
			return event.Event{}, nil, err
		}
		if tag > tagDerived {
			return event.Event{}, nil, fmt.Errorf("%w: record tag %d", ErrCorrupt, tag)
		}
		rows := r.stampRows()
		// Rows are dense by ID up to the width budget (a few-byte record
		// must not make the reader allocate for a 2³¹ ID); rarer IDs go
		// sparse.
		limit := deltaBudget(int64(r.off))
		v, err = r.deltaPayload(rows.thr.row(t, limit), rows.obj.row(o, limit), t, o, int(tag), 0, shared)
	}
	if err != nil {
		return event.Event{}, nil, err
	}
	return event.Event{Thread: event.ThreadID(t), Object: event.ObjectID(o), Op: event.Op(op)}, v, nil
}

// compactRecord decodes a version-03 record: the header byte, the thread,
// the object unless the header takes it from the thread's previous record,
// an escaped op, then the payload of the header's kind.
func (r *Reader) compactRecord(shared bool) (event.Event, vclock.Vector, error) {
	h := r.data[r.off]
	r.off++
	t, err := r.id("thread")
	if err != nil {
		return event.Event{}, nil, err
	}
	rows := r.stampRows()
	tr := rows.thr.row(t, deltaBudget(int64(r.off)))
	var o uint64
	if h&hdrSameObject != 0 {
		if tr.gen != rows.thr.gen {
			return event.Event{}, nil, fmt.Errorf("%w: same-object record for thread %d before any record of it", ErrCorrupt, t)
		}
		o = tr.obj
	} else if o, err = r.id("object"); err != nil {
		return event.Event{}, nil, err
	}
	// Below the escape, the op field is event.OpWrite or event.OpRead.
	op := uint64(h >> hdrOpShift & hdrOpMask)
	if op >= hdrOpEscape {
		if op > hdrOpEscape {
			return event.Event{}, nil, fmt.Errorf("%w: header %#02x op field", ErrCorrupt, h)
		}
		if op, err = r.op(); err != nil {
			return event.Event{}, nil, err
		}
	}
	kind := int(h & hdrLow)
	if h&hdrImplied != 0 {
		kind = kindImplied
	} else if kind > tagDerived {
		return event.Event{}, nil, fmt.Errorf("%w: header %#02x record kind %d", ErrCorrupt, h, kind)
	}
	or := rows.obj.row(o, deltaBudget(int64(r.off)))
	v, err := r.deltaPayload(tr, or, t, o, kind, h&hdrLow, shared)
	if err != nil {
		return event.Event{}, nil, err
	}
	return event.Event{Thread: event.ThreadID(t), Object: event.ObjectID(o), Op: event.Op(op)}, v, nil
}

// id reads a thread or object ID and bounds it.
func (r *Reader) id(name string) (uint64, error) {
	x, err := r.field(name)
	if err != nil {
		return 0, err
	}
	if x > maxID {
		return 0, fmt.Errorf("%w: %s ID %d", ErrCorrupt, name, x)
	}
	return x, nil
}

// op reads an op field and bounds it.
func (r *Reader) op() (uint64, error) {
	op, err := r.field("op")
	if err != nil {
		return 0, err
	}
	if op > maxOp {
		return 0, fmt.Errorf("%w: op %d", ErrCorrupt, op)
	}
	return op, nil
}

// stampRows returns the reader's running state, taking it from the pool
// on a delta stream's first record.
func (r *Reader) stampRows() *stampRows {
	if r.rows == nil {
		r.rows = getStampRows()
	}
	return r.rows
}

// fullVector decodes a canonical vector payload (format 01, and the delta
// formats' full records). In shared mode the result lives in the reader's
// retained scratch buffer; in scan mode the components are only parsed.
func (r *Reader) fullVector(shared bool) (vclock.Vector, error) {
	n, err := r.field("component count")
	if err != nil {
		return nil, err
	}
	if n > maxComponents {
		return nil, fmt.Errorf("%w: component count %d", ErrCorrupt, n)
	}
	if r.scan {
		for i := uint64(0); i < n; i++ {
			if _, err := r.field("component"); err != nil {
				return nil, err
			}
		}
		return nil, nil
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

// deltaPayload decodes the payload of a delta-format record of the given
// kind — thread t, row tr, on object o, row or — reconstructing the full
// vector in the thread's running stamp, which the object then takes too;
// mask is an implied record's tick mask. In shared mode the result aliases
// the thread's stamp instead of being cloned out of it. In scan mode it
// runs the same checks — a base for every delta, both inputs of every
// derived record, tick count, order and mask, the width budget — and
// rebuilds nothing.
func (r *Reader) deltaPayload(tr, or *stampRow, t, o uint64, kind int, mask byte, shared bool) (vclock.Vector, error) {
	rows := r.rows
	ticks, nt := noTicks, 0
	switch kind {
	case tagFull:
		v, err := r.fullVector(true)
		if err != nil {
			return nil, err
		}
		if !r.scan {
			// Absorb the sync vector into the thread's stamp in place,
			// zeroing any components beyond the canonical encoding's
			// trimmed tail.
			p := growState(rows.thr.live(tr), len(v))
			copy(p, v)
			clear(p[len(v):])
			tr.v = p
		}
		tr.gen = rows.thr.gen
	case tagDelta:
		// The writer emits a full vector as every thread's first record,
		// so a delta with no base to apply to is proof of corruption (or a
		// spliced stream) — reconstructing from zero would fabricate
		// timestamps without any error.
		if tr.gen != rows.thr.gen {
			return nil, fmt.Errorf("%w: delta record for thread %d before any full record", ErrCorrupt, t)
		}
		n, err := r.field("pair count")
		if err != nil {
			return nil, err
		}
		if n > maxComponents {
			return nil, fmt.Errorf("%w: pair count %d", ErrCorrupt, n)
		}
		v := tr.v
		for i := uint64(0); i < n; i++ {
			idx, err := r.componentIndex("pair index")
			if err != nil {
				return nil, err
			}
			x, err := r.field("pair value")
			if err != nil {
				return nil, err
			}
			if r.scan {
				continue
			}
			if int(idx) >= len(v) {
				v = growState(v, int(idx)+1)
			}
			v[idx] = x
		}
		tr.v = v
	default: // derived, explicit or implied
		if tr.gen != rows.thr.gen {
			return nil, fmt.Errorf("%w: derived record for thread %d before any full record", ErrCorrupt, t)
		}
		if or.gen != rows.obj.gen {
			return nil, fmt.Errorf("%w: derived record for object %d before any record of it", ErrCorrupt, o)
		}
		var err error
		if kind == kindImplied {
			nt, err = impliedTicks(tr, or, mask, &ticks)
		} else {
			nt, err = r.explicitTicks(&ticks)
		}
		if err != nil {
			return nil, err
		}
		if !r.scan {
			tr.v = joinTick(tr.v, or.v, ticks[:nt])
		}
	}
	// The record is the object's previous record from here on, and the
	// thread's; its stamp is both's previous stamp.
	if !r.scan {
		or.v = append(rows.obj.live(or)[:0], tr.v...)
	}
	or.gen = rows.obj.gen
	tr.obj = o
	tr.ticks, or.ticks = ticks, ticks
	r.kinds[kind]++
	if r.scan {
		return nil, nil
	}
	if shared {
		return tr.v, nil
	}
	return tr.v.Clone(), nil
}

// explicitTicks reads a derived-explicit payload — a tick count of 1–2
// and that many strictly ascending tick indices within the width budget —
// into ticks, and returns the count.
func (r *Reader) explicitTicks(ticks *tickSet) (int, error) {
	n, err := r.field("tick count")
	if err != nil {
		return 0, err
	}
	if n < 1 || n > maxTicks {
		return 0, fmt.Errorf("%w: tick count %d", ErrCorrupt, n)
	}
	for k := range int(n) {
		x, err := r.componentIndex("tick index")
		if err != nil {
			return 0, err
		}
		if k > 0 && x <= ticks[k-1] {
			return 0, fmt.Errorf("%w: tick indices %d, %d not ascending", ErrCorrupt, ticks[k-1], x)
		}
		ticks[k] = x
	}
	return int(n), nil
}

// impliedTicks picks a derived-implied record's ticks into ticks — the
// candidates of its thread's row tr and its object's row or that mask
// selects — and returns how many. A mask that is empty, names more than
// two candidates, or names one beyond the candidate count is corrupt.
func impliedTicks(tr, or *stampRow, mask byte, ticks *tickSet) (int, error) {
	var c [2 * maxTicks]uint64
	nc := candidates(&tr.ticks, &or.ticks, &c)
	if mask == 0 || mask>>nc != 0 || bits.OnesCount8(mask) > maxTicks {
		return 0, fmt.Errorf("%w: tick mask %04b with %d candidates", ErrCorrupt, mask, nc)
	}
	// One tick or two varies record to record, so the second is picked
	// without a branch (from an empty rest, TrailingZeros8 gives 8); a
	// loop over the mask bits made BenchmarkSegmentDecode/scan 7% slower.
	rest := mask & (mask - 1)
	ticks[0] = c[bits.TrailingZeros8(mask)]
	ticks[1] = c[bits.TrailingZeros8(rest)&3] | -uint64(bit(rest == 0))
	return 1 + bit(rest != 0), nil
}

// componentIndex reads a delta pair's or a tick's component index and
// bounds it: below maxComponents, as full records cap the width at
// maxComponents, and below the stream's width budget, so reconstruction
// memory stays proportional to input size — DeltaWriter maintains the same
// inequality against bytes written (falling back to full records when
// needed), so anything it produced passes, while a hostile few-byte record
// asking for a 2²⁴-wide vector is refused.
func (r *Reader) componentIndex(name string) (uint64, error) {
	idx, err := r.field(name)
	if err != nil {
		return 0, err
	}
	if idx >= maxComponents {
		return 0, fmt.Errorf("%w: component index %d", ErrCorrupt, idx)
	}
	if idx >= deltaBudget(int64(r.off)) {
		return 0, fmt.Errorf("%w: component index %d exceeds stream budget", ErrCorrupt, idx)
	}
	return idx, nil
}

// joinTick applies a derived record to the thread's stamp t: it becomes
// the componentwise maximum of t and the object's stamp o, as wide as the
// wider of the two and the highest tick, plus 1 at each tick index. t keeps
// its storage when it is large enough.
func joinTick(t, o vclock.Vector, ticks []uint64) vclock.Vector {
	t = growState(t, max(len(o), int(ticks[len(ticks)-1])+1))
	// Branch-free: which side is larger is as good as random per component.
	head := t[:len(o)]
	for i, x := range o {
		head[i] = max(head[i], x)
	}
	for _, k := range ticks {
		t[k]++
	}
	return t
}

// growState returns the running stamp v with at least n components, the
// new ones zero. Stamps are private to their reader or writer, so when one
// must reallocate it leaves room to double: a stamp whose width creeps up
// one component at a time then reallocates O(log width) times, not once
// per component.
func growState(v vclock.Vector, n int) vclock.Vector {
	if n <= len(v) {
		return v
	}
	if n <= cap(v) {
		g := v[:n]
		clear(g[len(v):])
		return g
	}
	g := make(vclock.Vector, n, max(n, 2*cap(v)))
	copy(g, v)
	return g
}

// stampRows is a delta reader's running state: the last stamp of
// every thread and every object seen in the stream. Readers take one from
// stampRowsPool on their first record and a SegmentReader gives it back at
// the end of its segment, so decoding segment after segment reuses the
// rows' vectors instead of allocating one per thread and per object each
// time.
type stampRows struct {
	thr, obj rowTable
}

var stampRowsPool = sync.Pool{New: func() any { return new(stampRows) }}

// getStampRows takes a state from the pool, emptied.
func getStampRows() *stampRows {
	rows := stampRowsPool.Get().(*stampRows)
	rows.thr.reset()
	rows.obj.reset()
	return rows
}

// rowTable maps IDs to running stamps. Rows are dense by ID below the
// reader's budget and sparse above it; an ID first seen sparse stays sparse
// for the rest of the stream, even once the dense rows grow past it. A row
// holds a stamp of this stream only when its gen matches the table's, so
// emptying the table for the next stream is O(1) and keeps every row's
// storage.
type rowTable struct {
	gen    uint32
	dense  []stampRow
	sparse map[uint64]*stampRow
}

// stampRow is one thread's or object's running state — its previous
// record's stamp and ticks, and a thread's previous record's object; see
// rowTable.
type stampRow struct {
	gen   uint32
	obj   uint64
	ticks tickSet
	v     vclock.Vector
}

// reset empties the table for a new stream.
func (t *rowTable) reset() {
	t.gen++
	if t.gen == 0 {
		for i := range t.dense {
			t.dense[i].gen = 0
		}
		t.gen = 1
	}
	clear(t.sparse)
}

// row returns id's row, growing the dense table to reach it when id is
// below limit.
func (t *rowTable) row(id, limit uint64) *stampRow {
	if len(t.sparse) > 0 {
		if r := t.sparse[id]; r != nil {
			return r
		}
	}
	if id < uint64(len(t.dense)) {
		return &t.dense[id]
	}
	if id < limit {
		t.dense = append(t.dense, make([]stampRow, int(id)+1-len(t.dense))...)
		return &t.dense[id]
	}
	r := t.sparse[id]
	if r == nil {
		if t.sparse == nil {
			t.sparse = make(map[uint64]*stampRow)
		}
		r = new(stampRow)
		t.sparse[id] = r
	}
	return r
}

// live returns the row's stamp when it belongs to this stream, and
// otherwise its storage emptied for reuse.
func (t *rowTable) live(r *stampRow) vclock.Vector {
	if r.gen == t.gen {
		return r.v
	}
	return r.v[:0]
}

// release hands the running state back to the pool; the reader takes a
// fresh one if it is asked for another record. Vectors NextShared returned
// are invalid from here on.
func (r *Reader) release() {
	if r.rows != nil {
		stampRowsPool.Put(r.rows)
		r.rows = nil
	}
}

// field parses one uvarint. A stream that ends inside it is truncated; a
// varint running past 64 bits is corrupt, whatever follows it. Varints of
// one and two bytes — nearly every field of a segment, whose IDs and tick
// indices mostly lie either side of 128 — are decoded without a branch on
// which they are, which the CPU could not predict.
func (r *Reader) field(name string) (uint64, error) {
	if x, n := shortUvarint(r.data[r.off:]); n > 0 {
		r.off += n
		return x, nil
	}
	return r.longField(name)
}

// shortUvarint decodes a varint of one or two bytes at the head of d
// without branching on which it is; n is 0 when d does not start with one
// followed by at least one more byte.
func shortUvarint(d []byte) (x uint64, n int) {
	if len(d) < 2 {
		return 0, 0
	}
	b0, b1 := uint64(d[0]), uint64(d[1])
	more := b0 >> 7 // 1 when the varint goes on past its first byte
	if b1&(more<<7) != 0 {
		return 0, 0
	}
	return b0&0x7f | b1*more<<7, int(1 + more)
}

// longField is field's path for a varint of several bytes, or none.
func (r *Reader) longField(name string) (uint64, error) {
	x, n := binary.Uvarint(r.data[r.off:])
	switch {
	case n < 0:
		return 0, fmt.Errorf("%w: %s field: %v", ErrCorrupt, name, errOverflow)
	case n == 0:
		return 0, fmt.Errorf("%w: %s field: %v", ErrTruncated, name, io.ErrUnexpectedEOF)
	}
	r.off += n
	return x, nil
}

// errOverflow is the cause a field reports when its varint does not fit in
// 64 bits.
var errOverflow = errors.New("varint overflows a 64-bit integer")

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

// ReadAll reads r whole, then every complete record. On truncation it
// returns the readable prefix together with an error wrapping
// ErrTruncated, so crash recovery can proceed with what survived.
func ReadAll(r io.Reader) (*event.Trace, []vclock.Vector, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("tlog: reading: %w", err)
	}
	lr, err := NewReader(data)
	if err != nil {
		return nil, nil, err
	}
	defer lr.release()
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
