package tlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// Delta-encoded log formats (versions 02 and 03). Within one thread,
// consecutive stamps differ in only the components the event changed — on
// wide clocks a handful out of k — so shipping the full vector per record
// wastes both bytes and writer time. And most records need not carry even
// that: by the §III-C update rule an event's stamp is
//
//	V(e) = tick(join(V(thread's previous event), V(object's previous event)))
//
// with both clocks then set to V(e), so once the thread and the object have
// each appeared in the stream, the record only has to say which components
// the tick raised — and those are nearly always components the thread's or
// the object's previous record ticked too, which the reader already has.
//
// A record carries one of four payload kinds:
//
//   - full: a canonical vector (uvarint count + uvarint components,
//     trailing zeros trimmed).
//   - delta: a uvarint pair count and that many (uvarint index, uvarint
//     value) pairs, applied to the same thread's previous stamp in order,
//     later entries overriding earlier ones, so a raw change capture (which
//     may mention a component twice: join raise, then tick) is a valid
//     payload as-is.
//   - derived-explicit: a uvarint tick count, 1 or 2, and that many
//     strictly ascending uvarint tick indices. The stamp is the
//     componentwise maximum of the thread's and the object's previous
//     stamps in the stream, as wide as the wider of the two (and as the
//     highest tick index + 1), plus 1 at each tick index. A derived record
//     whose thread or object has no earlier record in the stream is
//     corrupt.
//   - derived-implied (version 03 only): a derived record with no payload;
//     its ticks are picked from the candidates by a mask in the header. The
//     candidates are the ascending distinct tick indices of the thread's
//     previous record and of the object's previous record in the stream,
//     each counted only when that record is derived — so at most four. A
//     mask bit at or beyond the candidate count, an empty mask, or a mask
//     of more than two bits is corrupt.
//
// Version 02 ("MVCLOG02", still read, no longer written) frames a record as
//
//	uvarint thread | uvarint object | uvarint op | uvarint tag | payload
//
// with tag 0 full, 1 delta and 2 derived-explicit. Version 03 ("MVCLOG03",
// what DeltaWriter writes) frames it as
//
//	header byte | uvarint thread | [uvarint object] | [uvarint op] | payload
//
// where the header byte is, from the high bit down:
//
//	bit 7     implied: the record is derived-implied
//	bits 6–5  op: 0 write, 1 read, 2 escape (a uvarint op follows the
//	          object), 3 corrupt
//	bit 4     same object: the record's object is its thread's previous
//	          record's object in the stream, and the object field is
//	          omitted (corrupt on a thread's first record)
//	bits 3–0  the tick mask when implied; otherwise the kind — 0 full,
//	          1 delta, 2 derived-explicit, 3 and up corrupt
//
// So a derived record costs a header byte and its thread ID, plus its
// object ID about half the time, plus its tick indices in the rare case
// they are not among the candidates.
//
// Every record, whatever its kind, becomes both its thread's and its
// object's previous record. A thread's first record is full; a record whose
// thread and object have both appeared is derived whenever its stamp is
// exactly tick(join) with one or two ticks (the tracker's always are, and
// Append checks it from the stamps) — implied when its ticks are among the
// candidates, explicit otherwise; the rest — an object's first record, or
// a stamp the rule does not explain — are deltas, or full at the
// per-thread sync points every SyncEvery records. A derivable record takes
// precedence over a due sync point: a derived record depends on the
// object's stamp as much as the thread's, so a full vector on the thread
// would not make the stream seekable from there anyway, and a segment is
// always replayed from its start — the syncs would only add bytes (the
// next non-derived record of the thread takes the sync instead). Explicit
// tick indices pass the same width budget as delta pairs; a tick beyond it
// falls back to a full record, which pays for its width in stream bytes.
// Implied ticks were explicit in some earlier record, so the budget
// already passed them. Records are self-delimiting; truncation semantics
// match the full format.
//
// Readers auto-detect the version from the magic, so ReadAll and Reader
// accept every format transparently.

// magicDelta identifies version 02 of the delta format, which readers
// still accept; magicCompact identifies version 03, which DeltaWriter
// writes.
var (
	magicDelta   = [8]byte{'M', 'V', 'C', 'L', 'O', 'G', '0', '2'}
	magicCompact = [8]byte{'M', 'V', 'C', 'L', 'O', 'G', '0', '3'}
)

// Record kinds of the delta formats: versions 02 and 03 share the first
// three (as 02's tags and 03's header kinds); kindImplied is 03's header
// implied bit.
const (
	tagFull     = 0
	tagDelta    = 1
	tagDerived  = 2
	kindImplied = 3
)

// Version-03 header bits; see the format description.
const (
	hdrImplied    = 0x80
	hdrOpShift    = 5
	hdrOpMask     = 3
	hdrSameObject = 0x10
	hdrLow        = 0x0f
	// hdrOpEscape is the op field's escape; below it, the field holds
	// event.OpWrite (0) or event.OpRead (1) as it is.
	hdrOpEscape = 2
)

// maxTicks is the most ticks a derived record carries: an event raises its
// thread's component, its object's, or both.
const maxTicks = 2

// noTick pads a tickSet's unused slots; it sorts after every tick index.
const noTick = math.MaxUint64

// tickSet is the tick indices of a derived record, ascending, padded with
// noTick; noTicks, a record of any other kind's, has none.
type tickSet [maxTicks]uint64

var noTicks = tickSet{noTick, noTick}

// len returns how many ticks s holds.
func (s *tickSet) len() int {
	switch {
	case s[0] == noTick:
		return 0
	case s[1] == noTick:
		return 1
	}
	return 2
}

// candidates writes the implied-tick candidates of a record whose
// thread's previous record ticked a and whose object's previous record
// ticked b — their ascending distinct indices — to c and returns how many
// there are. The slots of c past them hold no candidate but may hold
// anything.
//
// How many candidates there are, and which slots repeat, varies record to
// record, so nothing here branches on it: the two ascending pairs merge in
// three compare-exchanges (the padding sorts last), each merged slot goes
// to c[n] whether or not it then counts, and the two tests on whether it
// counts are joined with &, since && compiles to a branch. A loop that
// appended the distinct slots made BenchmarkSegmentDecode/scan 14% slower
// (76.0 → 86.9 ns/event, medians of five alternating runs, 2-vCPU x86
// VM), and && in place of & 19% slower (61.0 → 72.8, six runs).
func candidates(a, b *tickSet, c *[2 * maxTicks]uint64) int {
	s0, s3 := min(a[0], b[0]), max(a[1], b[1])
	s1, s2 := max(a[0], b[0]), min(a[1], b[1])
	s1, s2 = min(s1, s2), max(s1, s2)
	c[0] = s0
	n := bit(s0 != noTick)
	c[n&3] = s1
	n += bit(s1 != s0) & bit(s1 != noTick)
	c[n&3] = s2
	n += bit(s2 != s1) & bit(s2 != noTick)
	c[n&3] = s3
	return n + bit(s3 != s2)&bit(s3 != noTick)
}

// slotsOf returns the mask of the slots of c that hold x, comparing all
// four without a branch.
func slotsOf(c *[2 * maxTicks]uint64, x uint64) byte {
	return byte(bit(c[0] == x)) | byte(bit(c[1] == x))<<1 | byte(bit(c[2] == x))<<2 | byte(bit(c[3] == x))<<3
}

// bit is 1 for true and 0 for false.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// DefaultSyncEvery is how often (per thread) the delta writer emits a full
// vector when no explicit interval is configured. Small enough to bound
// corruption blast radius, large enough that sync cost disappears into the
// noise on wide clocks.
const DefaultSyncEvery = 64

// DeltaWriter appends timestamped events to a stream in the delta format,
// version 03. Call Flush before closing the underlying writer.
//
// The writer keeps one vector of state per thread (and, for Append, per
// object) and reuses its encode buffer, so steady-state appends do not
// allocate — the other half of the "stop paying O(k) per event" contract
// the live tracker's delta records start.
type DeltaWriter struct {
	w         *bufio.Writer
	started   bool
	buf       []byte
	scratch   []byte
	syncEvery int
	// written counts stream bytes flushed so far; the writer keeps every
	// emitted pair and tick index below deltaBudget(written), mirroring the
	// reader's anti-amplification check, by falling back to full records.
	written int64
	// threads[id] and objects[id] are thread and object id's running
	// state, grown on first sight of the id (IDs are dense).
	threads []threadLogState
	objects []objectLogState
	// touched marks, one bit per component, what the record AppendDelta is
	// encoding assigned, unless it is written derived, and orig[i] is
	// component i's value before that record. Both persist across records;
	// touched is all-zero between calls, and orig is read only where
	// touched is set.
	touched []uint64
	orig    []uint64
}

// threadLogState is the writer's running view of one thread: the thread's
// previous stamp and how many records since its last full vector (zero
// meaning no record yet — the first is always full), and, once it has a
// record, that record's object and ticks.
type threadLogState struct {
	prev  vclock.Vector
	since int
	obj   event.ObjectID
	ticks tickSet
}

// objectLogState is the writer's running view of one object. seen reports
// that the object has a record in the stream, which a derived record needs
// (the reader takes its object input from there), and ticks are that
// record's ticks. last is that record's stamp when Append wrote it — what
// Append checks derivability against — and valid only while known:
// AppendDelta takes its caller's word on derivability and keeps no object
// vector.
type objectLogState struct {
	seen, known bool
	ticks       tickSet
	last        vclock.Vector
}

// NewDeltaWriter returns a delta-format Writer on w with the default sync
// interval.
func NewDeltaWriter(w io.Writer) *DeltaWriter { return NewDeltaWriterSync(w, DefaultSyncEvery) }

// NewDeltaWriterSync is NewDeltaWriter with an explicit per-thread full-
// vector interval. syncEvery < 1 means every record that is not derived is
// written full (the delta framing with v1 economics — still readable by
// the same Reader).
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

// object returns object id's running state, growing the table to reach
// it. The pointer is valid until the table next grows.
func (w *DeltaWriter) object(id event.ObjectID) *objectLogState {
	if n := int(id) + 1; n > len(w.objects) {
		w.objects = append(w.objects, make([]objectLogState, n-len(w.objects))...)
	}
	return &w.objects[id]
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

// begin writes the record prelude shared by every payload kind — the
// header byte with its op and same-object bits (payload adds the kind),
// the thread, the object unless the header implies it, an escaped op —
// and returns the thread's and the object's state.
func (w *DeltaWriter) begin(e event.Event) (st *threadLogState, ob *objectLogState, err error) {
	if e.Thread < 0 || e.Object < 0 || e.Op < 0 {
		return nil, nil, fmt.Errorf("tlog: negative field in event %v", e)
	}
	if !w.started {
		if _, err := w.w.Write(magicCompact[:]); err != nil {
			return nil, nil, fmt.Errorf("tlog: writing header: %w", err)
		}
		w.started = true
		w.written += int64(len(magicCompact))
	}
	st, ob = w.state(e.Thread), w.object(e.Object)
	// The op field holds event.OpWrite and event.OpRead as they are.
	op := byte(hdrOpEscape)
	if e.Op <= event.OpRead {
		op = byte(e.Op)
	}
	w.buf = append(w.buf[:0], op<<hdrOpShift)
	w.buf = binary.AppendUvarint(w.buf, uint64(e.Thread))
	if st.since > 0 && st.obj == e.Object {
		w.buf[0] |= hdrSameObject
	} else {
		w.buf = binary.AppendUvarint(w.buf, uint64(e.Object))
	}
	if op == hdrOpEscape {
		w.buf = binary.AppendUvarint(w.buf, uint64(e.Op))
	}
	return st, ob, nil
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

// derivable reports whether a record of a thread in state st on an object
// in state ob may be written derived with the given ticks: the thread has
// a record in the stream (a seed is not one — the reader never saw it), so
// has the object, and every tick index is within the reader's width
// budget.
func (w *DeltaWriter) derivable(st *threadLogState, ob *objectLogState, ticks *tickSet) bool {
	n := ticks.len()
	return n > 0 && st.since > 0 && ob.seen && ticks[n-1] < deltaBudget(w.written)
}

// payload sets the record's kind in its header and appends its payload:
// derived when derived — implied when the ticks are among the candidates,
// explicit otherwise — otherwise the thread's running stamp in full when a
// sync is due (maxIdx is the highest pair index), otherwise the pairs in
// w.scratch. It returns the kind written.
func (w *DeltaWriter) payload(st *threadLogState, ob *objectLogState, derived bool, ticks *tickSet, pairs int, maxIdx uint64) int {
	switch {
	case derived:
		// A tick's mask bit is its slot among the candidates. Looking both
		// ticks up in every slot, with no branch on which slots count or
		// whether there is a second tick, keeps BenchmarkSeal level with
		// the MVCLOG02 writer; a slices.Index per tick made it 13% slower.
		var c [2 * maxTicks]uint64
		counted := byte(1)<<candidates(&st.ticks, &ob.ticks, &c) - 1
		m0, m1 := slotsOf(&c, ticks[0])&counted, slotsOf(&c, ticks[1])&counted
		if m0 != 0 && (m1 != 0 || ticks[1] == noTick) {
			w.buf[0] |= hdrImplied | m0 | m1
			return kindImplied
		}
		w.buf[0] |= tagDerived
		n := ticks.len()
		w.buf = binary.AppendUvarint(w.buf, uint64(n))
		for _, i := range ticks[:n] {
			w.buf = binary.AppendUvarint(w.buf, i)
		}
		return tagDerived
	case w.syncDue(st, maxIdx):
		w.buf[0] |= tagFull
		w.buf = st.prev.AppendBinary(w.buf)
		return tagFull
	default:
		w.buf[0] |= tagDelta
		w.buf = binary.AppendUvarint(w.buf, uint64(pairs))
		w.buf = append(w.buf, w.scratch...)
		return tagDelta
	}
}

// flushRecord writes the assembled record buffer of event e and settles
// the thread's sync counter — a full record restarts it, any other
// advances it — and the record's object and ticks as its thread's and its
// object's previous record's.
func (w *DeltaWriter) flushRecord(st *threadLogState, ob *objectLogState, e event.Event, kind int, ticks *tickSet) error {
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("tlog: writing record: %w", err)
	}
	w.written += int64(len(w.buf))
	if kind == tagFull {
		st.since = 1
	} else {
		st.since++
	}
	st.obj = e.Object
	if kind != tagDerived && kind != kindImplied {
		ticks = &noTicks
	}
	st.ticks, ob.ticks = *ticks, *ticks
	ob.seen = true
	return nil
}

// Append writes one record, derived when v is tick(join) of the thread's
// and the object's previous stamps, otherwise diffed against the thread's
// previous stamp.
func (w *DeltaWriter) Append(e event.Event, v vclock.Vector) error {
	st, ob, err := w.begin(e)
	if err != nil {
		return err
	}
	p := st.prev
	ticks := noTicks
	if ob.known {
		// Both stamps are the writer's own, and v replaces both below, so
		// growing them to a common width costs nothing but zeros.
		n := max(len(p), len(ob.last), len(v))
		p, ob.last = growState(p, n), growState(ob.last, n)
		ruleTicks(p, ob.last, v, &ticks)
	}
	derived := w.derivable(st, ob, &ticks)
	pairs := 0
	var maxIdx uint64
	if !derived {
		// One diff pass emitting pairs into the scratch buffer, so the
		// pair-count prefix can go first without a second scan.
		w.scratch = w.scratch[:0]
		for i := range max(len(p), len(v)) {
			if x := v.At(i); x != p.At(i) {
				pairs++
				maxIdx = uint64(i)
				w.scratch = binary.AppendUvarint(w.scratch, uint64(i))
				w.scratch = binary.AppendUvarint(w.scratch, x)
			}
		}
	}
	// Absorb v into the retained per-thread state, reusing its storage.
	p = growState(p, len(v))
	copy(p, v)
	clear(p[len(v):])
	st.prev = p
	kind := w.payload(st, ob, derived, &ticks, pairs, maxIdx)
	ob.last = append(ob.last[:0], v...)
	ob.known = true
	return w.flushRecord(st, ob, e, kind, &ticks)
}

// ruleTicks sets ticks to what v adds to the componentwise maximum of p
// and o, in ascending order, when v is that maximum plus 1 at one or two
// components, and to noTicks when it is not. p and o have one length, at
// least len(v).
func ruleTicks(p, o, v vclock.Vector, ticks *tickSet) {
	*ticks = noTicks
	for i := len(v); i < len(p); i++ {
		if p[i]|o[i] != 0 {
			return
		}
	}
	p, o = p[:len(v)], o[:len(v)]
	found := noTicks
	nt := 0
	for i, x := range v {
		if j := max(p[i], o[i]); x != j {
			if x-j != 1 || nt == maxTicks {
				return
			}
			found[nt] = uint64(i)
			nt++
		}
	}
	*ticks = found
}

// AppendDelta writes one record straight from a change capture (the
// (index, value) assignments the event applied to the thread's previous
// stamp — what vclock's JoinDelta/TickDelta or core's TimestampDelta
// produce), so the caller never materializes a full vector. At sync points
// the writer falls back to the full vector it maintains internally.
//
// ticks is how many of the capture's last entries are the event's ticks
// (0–2). A positive count is the caller's word that the capture is the
// §III-C rule run on the thread's and the object's previous stamps in this
// stream — a join, then those ticks — so the record is written derived
// whenever the stream allows it, with no O(width) check; the tracker's
// commits capture exactly that. With ticks 0 the record is never derived.
//
// The capture is canonicalized before encoding: pairs are written in
// ascending component order, only the last assignment to each index counts
// (captures may mention a component twice — join raise, then tick), and
// assignments that leave the component unchanged are dropped. What remains
// is exactly the diff against the thread's previous stamp, so
// AppendDelta(e, ds, ticks) and Append(e, prev.Apply(ds)) produce
// identical bytes when the tick count is truthful — capture order is the
// one thing that differs between clock backends (flat scans ascending, tree
// walks its marks), and canonicalizing here makes a computation export to
// identical bytes whichever backend stamped it and whichever entry point
// fed the writer.
//
// A record written derived costs one in-order pass over the capture, each
// assignment landing on the running stamp once — later entries override
// earlier ones, so the stamp comes out right without de-duplicating — and
// nothing else: its payload is at most the tick indices. Any other record
// costs that pass plus one scan of a bitmap of the components the capture
// touched, which both orders and de-duplicates the indices (no sort) and
// keeps each one's value from before the record, so the scan emits exactly
// the net changes.
func (w *DeltaWriter) AppendDelta(e event.Event, ds []vclock.Delta, ticks int) error {
	if ticks < 0 || ticks > maxTicks || ticks > len(ds) {
		return fmt.Errorf("tlog: %d ticks for a %d-entry change set", ticks, len(ds))
	}
	st, ob, err := w.begin(e)
	if err != nil {
		return err
	}
	tk := noTicks
	for k, d := range ds[len(ds)-ticks:] {
		tk[k] = uint64(d.Index)
	}
	if tk[0] > tk[1] {
		tk[0], tk[1] = tk[1], tk[0]
	}
	// Two ticks of one component would be a raise by 2, not a tick.
	derived := tk[0] != tk[1] && w.derivable(st, ob, &tk)
	prev := st.prev
	if derived {
		for _, d := range ds {
			if i := int(d.Index); i >= len(prev) {
				prev = growState(prev, i+1)
			}
			prev[d.Index] = d.Value
		}
		st.prev = prev
		kind := w.payload(st, ob, true, &tk, 0, 0)
		ob.known = false
		return w.flushRecord(st, ob, e, kind, &tk)
	}
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
	kind := w.payload(st, ob, false, &tk, pairs, maxIdx)
	ob.known = false
	return w.flushRecord(st, ob, e, kind, &tk)
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
