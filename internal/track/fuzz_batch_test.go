package track

import (
	"fmt"
	"testing"

	"mixedclock/internal/event"
)

// fuzzOp is one decoded fuzz operation plus its schedule marks.
type fuzzOp struct {
	thread  int
	object  int
	op      event.Op
	cut     bool // batch boundary after this operation
	compact bool // epoch compaction after this operation (implies cut)
}

// decodeBatchSchedule turns arbitrary bytes into an op sequence with
// arbitrary batch boundaries: each byte is one operation (thread, object,
// read/write) plus a boundary bit and a rare compaction mark. Bounded so a
// large fuzz input stays a fast test.
func decodeBatchSchedule(data []byte) []fuzzOp {
	const maxOps = 256
	if len(data) > maxOps {
		data = data[:maxOps]
	}
	ops := make([]fuzzOp, len(data))
	for i, b := range data {
		ops[i] = fuzzOp{
			thread:  int(b >> 5 & 0x3),
			object:  int(b >> 2 & 0x7 % 3),
			op:      event.Op(b & 1),
			cut:     b&0x10 != 0,
			compact: b == 0xFF,
		}
	}
	return ops
}

// FuzzBatchCommit is the batching equivalence property under fuzzing:
// an arbitrary operation sequence split at arbitrary batch boundaries
// (including mid-object runs, single-op batches, and epoch compactions
// between batches) must replay (event, epoch, stamp)-identically to the
// plain per-event Do loop.
func FuzzBatchCommit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x21, 0x21, 0x21, 0x31, 0x45, 0x45})             // runs + a cut
	f.Add([]byte{0x00, 0x20, 0x40, 0x60, 0x00, 0x20, 0x40})       // round-robin threads
	f.Add([]byte{0x05, 0x05, 0xFF, 0x05, 0x05})                   // compaction mid-stream
	f.Add([]byte{0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17})       // every op its own batch
	f.Add([]byte{0x81, 0x85, 0x89, 0x8d, 0xa1, 0xa5, 0xFF, 0x81}) // reads, mixed objects

	f.Fuzz(func(t *testing.T, data []byte) {
		sched := decodeBatchSchedule(data)

		// Reference: the per-event Do loop.
		ref := mustOpen(t, "")
		refThreads := make(map[int]*Thread)
		refObjects := make(map[int]*Object)
		var want []Stamped
		for _, fo := range sched {
			th, ok := refThreads[fo.thread]
			if !ok {
				th = ref.NewThread(fmt.Sprintf("t%d", fo.thread))
				refThreads[fo.thread] = th
			}
			o, ok := refObjects[fo.object]
			if !ok {
				o = ref.NewObject(fmt.Sprintf("o%d", fo.object))
				refObjects[fo.object] = o
			}
			want = append(want, th.Do(o, fo.op, nil))
			if fo.compact {
				if _, _, err := ref.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Batched: same schedule, cut into batches at the fuzzed boundaries
		// (and forcibly at thread changes — a Batch belongs to one thread).
		tr := mustOpen(t, "")
		threads := make(map[int]*Thread)
		objects := make(map[int]*Object)
		var got []Stamped
		var b *Batch
		bThread := -1
		flush := func() {
			if b != nil && b.Len() > 0 {
				got = append(got, b.Commit()...)
			}
		}
		for _, fo := range sched {
			if fo.thread != bThread {
				flush()
				th, ok := threads[fo.thread]
				if !ok {
					th = tr.NewThread(fmt.Sprintf("t%d", fo.thread))
					threads[fo.thread] = th
				}
				b = th.NewBatch()
				bThread = fo.thread
			}
			o, ok := objects[fo.object]
			if !ok {
				o = tr.NewObject(fmt.Sprintf("o%d", fo.object))
				objects[fo.object] = o
			}
			b.Add(o, fo.op)
			if fo.cut || fo.compact {
				flush()
			}
			if fo.compact {
				if _, _, err := tr.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		flush()

		if len(got) != len(want) {
			t.Fatalf("batched replay produced %d stamps, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Event != want[i].Event {
				t.Fatalf("event %d: batched %+v, Do %+v", i, got[i].Event, want[i].Event)
			}
			if got[i].Epoch != want[i].Epoch {
				t.Fatalf("event %d: batched epoch %d, Do epoch %d", i, got[i].Epoch, want[i].Epoch)
			}
			if gv, wv := got[i].Vector(), want[i].Vector(); !gv.Equal(wv) {
				t.Fatalf("event %d: batched stamp %v, Do stamp %v", i, gv, wv)
			}
		}
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
