package tlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// Delta-encoded log format (version 02). Within one thread, consecutive
// stamps differ in only the components the event changed — on wide clocks a
// handful out of k — so shipping the full vector per record wastes both
// bytes and writer time. The delta format stores, per record, the
// (index, value) pairs that changed relative to the same thread's previous
// record, falling back to a full vector every SyncEvery records per thread
// (and for a thread's first record) so a partially corrupt log loses at
// most one sync interval per thread and readers need only bounded state.
//
// Format: the 8-byte magic "MVCLOG02", then one record per event:
//
//	uvarint thread | uvarint object | uvarint op | uvarint tag | payload
//
// where tag 0 (full) is followed by a canonical vector (uvarint count +
// uvarint components, trailing zeros trimmed) and tag 1 (delta) by a
// uvarint pair count and that many (uvarint index, uvarint value) pairs.
// Pairs apply in order, later entries overriding earlier ones, so a raw
// change capture (which may mention a component twice: join raise, then
// tick) is a valid payload as-is. Records are self-delimiting; truncation
// semantics match the full format.
//
// Readers auto-detect the version from the magic, so ReadAll and Reader
// accept either format transparently.

// magicDelta identifies the delta-encoded format.
var magicDelta = [8]byte{'M', 'V', 'C', 'L', 'O', 'G', '0', '2'}

// Record payload tags of the delta format.
const (
	tagFull  = 0
	tagDelta = 1
)

// DefaultSyncEvery is how often (per thread) the delta writer emits a full
// vector when no explicit interval is configured. Small enough to bound
// corruption blast radius, large enough that sync cost disappears into the
// noise on wide clocks.
const DefaultSyncEvery = 64

// DeltaWriter appends timestamped events to a stream in the delta format.
// Call Flush before closing the underlying writer.
//
// The writer keeps one vector of state per thread and reuses its encode
// buffer, so steady-state appends do not allocate — the other half of the
// "stop paying O(k) per event" contract the live tracker's delta records
// start.
type DeltaWriter struct {
	w         *bufio.Writer
	started   bool
	buf       []byte
	scratch   []byte
	syncEvery int
	// written counts stream bytes flushed so far; the writer keeps every
	// emitted pair index below deltaBudget(written), mirroring the
	// reader's anti-amplification check, by falling back to full records.
	written int64
	// threads[id] is thread id's running state, grown on first sight of
	// the id (thread IDs are dense).
	threads []threadLogState
	// touched marks, one bit per component, what the record AppendDelta is
	// encoding assigned, and orig[i] is component i's value before that
	// record. Both persist across records; touched is all-zero between
	// calls, and orig is read only where touched is set.
	touched []uint64
	orig    []uint64
}

// threadLogState is the writer's running view of one thread: the thread's
// previous stamp and how many records since its last full vector (zero
// meaning no record yet — the first is always full).
type threadLogState struct {
	prev  vclock.Vector
	since int
}

// NewDeltaWriter returns a delta-format Writer on w with the default sync
// interval.
func NewDeltaWriter(w io.Writer) *DeltaWriter { return NewDeltaWriterSync(w, DefaultSyncEvery) }

// NewDeltaWriterSync is NewDeltaWriter with an explicit per-thread full-
// vector interval. syncEvery < 1 means every record is written full (the
// v2 framing with v1 economics — still readable by the same Reader).
func NewDeltaWriterSync(w io.Writer, syncEvery int) *DeltaWriter {
	if syncEvery < 1 {
		syncEvery = 1
	}
	return &DeltaWriter{w: bufio.NewWriter(w), syncEvery: syncEvery}
}

// state returns thread id's running state, growing the table to reach it.
// The pointer is valid until the table next grows.
func (w *DeltaWriter) state(id event.ThreadID) *threadLogState {
	if n := int(id) + 1; n > len(w.threads) {
		w.threads = append(w.threads, make([]threadLogState, n-len(w.threads))...)
	}
	return &w.threads[id]
}

// Seed installs v (copied) as thread id's running stamp without writing a
// record. The thread's next record is still written full, as a thread's
// first always is, but AppendDelta change sets now apply on top of v — so
// a caller that knows where a thread stands going in (a segment starting
// mid-epoch) can write even the thread's first record from its change set.
func (w *DeltaWriter) Seed(id event.ThreadID, v vclock.Vector) {
	if id < 0 {
		return
	}
	st := w.state(id)
	st.prev, st.since = v.Clone(), 0
}

// Stamp returns thread id's running stamp: the full vector of its last
// record, or its seed; nil when the writer has seen neither. The vector is
// borrowed — the next Append, AppendDelta or Seed for the thread may
// overwrite it — so a caller that outlives the writer may keep it. Its
// capacity is capped at its length, so a holder that grows it copies.
func (w *DeltaWriter) Stamp(id event.ThreadID) vclock.Vector {
	if id < 0 || int(id) >= len(w.threads) {
		return nil
	}
	p := w.threads[id].prev
	return p[:len(p):len(p)]
}

// begin writes the record prelude shared by both payload kinds and returns
// the thread's state.
func (w *DeltaWriter) begin(e event.Event) (st *threadLogState, err error) {
	if e.Thread < 0 || e.Object < 0 || e.Op < 0 {
		return nil, fmt.Errorf("tlog: negative field in event %v", e)
	}
	if !w.started {
		if _, err := w.w.Write(magicDelta[:]); err != nil {
			return nil, fmt.Errorf("tlog: writing header: %w", err)
		}
		w.started = true
		w.written += int64(len(magicDelta))
	}
	st = w.state(e.Thread)
	w.buf = w.buf[:0]
	w.buf = binary.AppendUvarint(w.buf, uint64(e.Thread))
	w.buf = binary.AppendUvarint(w.buf, uint64(e.Object))
	w.buf = binary.AppendUvarint(w.buf, uint64(e.Op))
	return st, nil
}

// syncDue reports whether the thread's next record must carry a full
// vector: its first record, the periodic sync point, or a change set whose
// highest index the reader's width budget would refuse this early in the
// stream (offline clocks assign component indices up front, so a high index
// can legitimately appear before the stream has "paid" for it — the full
// record pays for its width in bytes, replenishing the budget).
func (w *DeltaWriter) syncDue(st *threadLogState, maxIdx uint64) bool {
	return st.since == 0 || st.since >= w.syncEvery || maxIdx >= deltaBudget(w.written)
}

// flushRecord writes the assembled record buffer and settles the thread's
// sync counter.
func (w *DeltaWriter) flushRecord(st *threadLogState, full bool) error {
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("tlog: writing record: %w", err)
	}
	w.written += int64(len(w.buf))
	if full {
		st.since = 1
	} else {
		st.since++
	}
	return nil
}

// Append writes one record, diffing v against the thread's previous stamp.
func (w *DeltaWriter) Append(e event.Event, v vclock.Vector) error {
	st, err := w.begin(e)
	if err != nil {
		return err
	}
	p := st.prev
	// One diff pass emitting pairs into the scratch buffer, so the
	// pair-count prefix can go first without a second scan.
	n := len(p)
	if len(v) > n {
		n = len(v)
	}
	pairs := 0
	var maxIdx uint64
	w.scratch = w.scratch[:0]
	for i := 0; i < n; i++ {
		if x := v.At(i); x != p.At(i) {
			pairs++
			maxIdx = uint64(i)
			w.scratch = binary.AppendUvarint(w.scratch, uint64(i))
			w.scratch = binary.AppendUvarint(w.scratch, x)
		}
	}
	full := w.syncDue(st, maxIdx)
	if full {
		w.buf = binary.AppendUvarint(w.buf, tagFull)
		w.buf = v.AppendBinary(w.buf)
	} else {
		w.buf = binary.AppendUvarint(w.buf, tagDelta)
		w.buf = binary.AppendUvarint(w.buf, uint64(pairs))
		w.buf = append(w.buf, w.scratch...)
	}
	// Absorb v into the retained per-thread state, reusing its storage.
	p = growState(p, len(v))
	copy(p, v)
	for i := len(v); i < len(p); i++ {
		p[i] = 0
	}
	st.prev = p
	return w.flushRecord(st, full)
}

// AppendDelta writes one record straight from a change capture (the
// (index, value) assignments the event applied to the thread's previous
// stamp — what vclock's JoinDelta/TickDelta or core's TimestampDelta
// produce), so the caller never materializes a full vector. At sync points
// the writer falls back to the full vector it maintains internally.
//
// The capture is canonicalized before encoding: pairs are written in
// ascending component order, only the last assignment to each index counts
// (captures may mention a component twice — join raise, then tick), and
// assignments that leave the component unchanged are dropped. What remains
// is exactly the diff against the thread's previous stamp, so
// AppendDelta(e, ds) and Append(e, prev.Apply(ds)) produce identical bytes
// — capture order is the one thing that differs between clock backends
// (flat scans ascending, tree walks its marks), and canonicalizing here
// makes a computation export to identical bytes whichever backend stamped
// it and whichever entry point fed the writer.
//
// The cost is one pass over the capture plus one scan of the bitmap words
// it touched: each assignment lands on the running stamp once, and the
// bitmap both orders and de-duplicates the indices, with no sort.
func (w *DeltaWriter) AppendDelta(e event.Event, ds []vclock.Delta) error {
	st, err := w.begin(e)
	if err != nil {
		return err
	}
	prev := st.prev
	lo, hi := len(w.touched), -1
	for _, d := range ds {
		i := int(d.Index)
		word, bit := i>>6, uint64(1)<<(i&63)
		if word >= len(w.touched) {
			w.touched = append(w.touched, make([]uint64, word+1-len(w.touched))...)
		}
		if w.touched[word]&bit == 0 {
			w.touched[word] |= bit
			if i >= len(w.orig) {
				w.orig = append(w.orig, make([]uint64, i+1-len(w.orig))...)
			}
			w.orig[i] = prev.At(i)
			lo, hi = min(lo, word), max(hi, word)
		}
		if i >= len(prev) {
			prev = growState(prev, i+1)
		}
		prev[i] = d.Value
	}
	st.prev = prev
	// Emit the net changes in ascending order, clearing the bitmap behind.
	pairs := 0
	var maxIdx uint64
	w.scratch = w.scratch[:0]
	for word := lo; word <= hi; word++ {
		for m := w.touched[word]; m != 0; m &= m - 1 {
			i := word<<6 | bits.TrailingZeros64(m)
			if x := prev[i]; x != w.orig[i] {
				pairs++
				maxIdx = uint64(i)
				w.scratch = binary.AppendUvarint(w.scratch, uint64(i))
				w.scratch = binary.AppendUvarint(w.scratch, x)
			}
		}
		w.touched[word] = 0
	}
	full := w.syncDue(st, maxIdx)
	if full {
		w.buf = binary.AppendUvarint(w.buf, tagFull)
		w.buf = prev.AppendBinary(w.buf)
	} else {
		w.buf = binary.AppendUvarint(w.buf, tagDelta)
		w.buf = binary.AppendUvarint(w.buf, uint64(pairs))
		w.buf = append(w.buf, w.scratch...)
	}
	return w.flushRecord(st, full)
}

// Flush pushes buffered records to the underlying writer.
func (w *DeltaWriter) Flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("tlog: flushing: %w", err)
	}
	return nil
}

// WriteAllDelta writes a whole timestamped computation in the delta format
// with the default sync interval. The stream typically shrinks by the ratio
// of clock width to per-event change count; ReadAll reads either format.
func WriteAllDelta(w io.Writer, tr *event.Trace, stamps []vclock.Vector) error {
	if len(stamps) != tr.Len() {
		return fmt.Errorf("tlog: %d stamps for %d events", len(stamps), tr.Len())
	}
	lw := NewDeltaWriter(w)
	for i := 0; i < tr.Len(); i++ {
		if err := lw.Append(tr.At(i), stamps[i]); err != nil {
			return err
		}
	}
	return lw.Flush()
}
