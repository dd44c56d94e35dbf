package main

import (
	"fmt"
	"sync"

	"mixedclock/internal/baseline"
	"mixedclock/internal/event"
	"mixedclock/internal/track"
	"mixedclock/internal/vclock"
)

// checkWindow is the sampled Theorem 2 check's stride and depth: every
// checkWindow-th event of an epoch is compared with its checkWindow
// predecessors.
const checkWindow = 256

// Window chunks: a chunk holds chunkWindows consecutive windows of one
// epoch, plus the event that closes the last one; at most chunksInFlight
// are buffered between the stream and the checking workers.
const (
	chunkWindows   = 16
	chunkEvents    = chunkWindows*checkWindow + 1
	chunksInFlight = 4
	checkWorkers   = drivers
)

// maxNotes bounds how many failure descriptions a gate keeps.
const maxNotes = 5

// gate collects correctness failures; a run with any is not correct. It is
// safe for concurrent use.
type gate struct {
	mu       sync.Mutex
	failures int64
	notes    []string
}

func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failures++
	if len(g.notes) < maxNotes {
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

func (g *gate) failErr(what string, err error) {
	if err != nil {
		g.fail("%s: %v", what, err)
	}
}

// checker is the gate's StampSink over a tracker's retained history. On
// the stream it checks that indices are dense from the retention floor,
// that epochs never go back and that every event names a registered thread
// and object. It cuts each epoch into windows of checkWindow+1 events and
// has workers replay an independent thread-indexed clock
// (baseline.ThreadClock) over each window beside the mixed stamps: the
// window's last event must be ordered against each of its checkWindow
// predecessors the same way by both clocks (Theorem 2, sampled).
//
// A window's thread clock starts from zero at the window's first event.
// That decides every pair in the window exactly: indices linearize
// happened-before, so every causal chain between two of the window's
// events runs through events of the window. It also lets windows be
// checked in parallel.
type checker struct {
	g                *gate
	threads, objects int
	next             int
	epoch            int
	cur              *chunk
	free, full       chan *chunk
	wg               sync.WaitGroup
}

// chunk is a run of consecutive events of one epoch with copies of their
// mixed stamps. Its first event sits at a multiple of checkWindow in the
// epoch, so its windows start every checkWindow events.
type chunk struct {
	ev   []event.Event
	end  []int // stamp i is data[end[i-1]:end[i]]
	data []uint64
}

func (c *chunk) stamp(i int) vclock.Vector {
	lo := 0
	if i > 0 {
		lo = c.end[i-1]
	}
	return c.data[lo:c.end[i]]
}

func (c *chunk) add(e event.Event, v vclock.Vector) {
	c.ev = append(c.ev, e)
	c.data = append(c.data, v...)
	c.end = append(c.end, len(c.data))
}

func (c *chunk) reset() {
	c.ev, c.end, c.data = c.ev[:0], c.end[:0], c.data[:0]
}

func newChecker(g *gate, floor, threads, objects int) *checker {
	c := &checker{g: g, threads: threads, objects: objects, next: floor, epoch: -1,
		free: make(chan *chunk, chunksInFlight), full: make(chan *chunk, chunksInFlight)}
	for range chunksInFlight {
		c.free <- &chunk{}
	}
	c.cur = <-c.free
	for range checkWorkers {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for ch := range c.full {
				c.checkChunk(ch)
				c.free <- ch
			}
		}()
	}
	return c
}

// ConsumeStamp implements track.StampSink.
func (c *checker) ConsumeStamp(e event.Event, epoch int, v vclock.Vector) error {
	if e.Index != c.next {
		c.g.fail("event index %d, want %d", e.Index, c.next)
	}
	c.next = e.Index + 1
	if int(e.Thread) >= c.threads || int(e.Object) >= c.objects {
		c.g.fail("event %d names thread %d, object %d outside %d×%d", e.Index, e.Thread, e.Object, c.threads, c.objects)
		return nil
	}
	if epoch != c.epoch {
		if epoch < c.epoch {
			c.g.fail("event %d in epoch %d after epoch %d", e.Index, epoch, c.epoch)
		}
		c.ship()
		c.epoch = epoch
	}
	c.cur.add(e, v)
	if len(c.cur.ev) == chunkEvents {
		// The event closing this chunk's last window opens the next
		// chunk's first.
		c.ship()
		c.cur.add(e, v)
	}
	return nil
}

// ship hands the current chunk to the workers, when it holds a complete
// window, and starts a fresh one.
func (c *checker) ship() {
	if len(c.cur.ev) > checkWindow {
		c.full <- c.cur
		c.cur = <-c.free
	}
	c.cur.reset()
}

// finish waits for the workers and checks that the stream reached end, the
// tracker's event count.
func (c *checker) finish(end int) {
	c.ship()
	close(c.full)
	c.wg.Wait()
	if c.next != end {
		c.g.fail("history ends at index %d, want %d", c.next, end)
	}
}

// checkChunk checks every complete window of ch.
func (c *checker) checkChunk(ch *chunk) {
	base := make([]vclock.Vector, checkWindow+1)
	for s := 0; s+checkWindow < len(ch.ev); s += checkWindow {
		clk := baseline.NewThreadClock(c.threads, c.objects)
		for i := range base {
			base[i] = clk.Timestamp(ch.ev[s+i])
		}
		last := s + checkWindow
		v := ch.stamp(last)
		for i := range checkWindow {
			if got, want := ch.stamp(s+i).Compare(v), base[i].Compare(base[checkWindow]); got != want {
				c.g.fail("event %d: predecessor %d compares %v under the mixed clock, %v under the thread clock",
					ch.ev[last].Index, ch.ev[s+i].Index, got, want)
			}
		}
	}
}

// checkTracker streams tr's retained history once through a checker (and
// through extra, when non-nil) and folds the tracker's own error in.
func checkTracker(g *gate, tr *track.Tracker, threads, objects int, extra track.StampSink) {
	c := newChecker(g, tr.RetainedEvents(), threads, objects)
	var sink track.StampSink = c
	if extra != nil {
		sink = tee{c, extra}
	}
	g.failErr("streaming history", tr.Stream(sink))
	c.finish(tr.Events())
	g.failErr("tracker", tr.Err())
}

// tee feeds one stream to two sinks.
type tee [2]track.StampSink

func (t tee) ConsumeStamp(e event.Event, epoch int, v vclock.Vector) error {
	if err := t[0].ConsumeStamp(e, epoch, v); err != nil {
		return err
	}
	return t[1].ConsumeStamp(e, epoch, v)
}

// checkReopen reopens a closed run directory and checks that recovery
// found every committed event and quarantined nothing.
func checkReopen(g *gate, dir string, opts []track.Option, committed int) {
	tr, err := track.Open(dir, opts...)
	if err != nil {
		g.failErr("reopening "+dir, err)
		return
	}
	if n := tr.Events(); n != committed {
		g.fail("reopened run has %d events, %d were committed", n, committed)
	}
	if q := tr.Recovery().Quarantined; len(q) > 0 {
		g.fail("recovery quarantined %v", q)
	}
	g.failErr("reopened tracker", tr.Err())
	g.failErr("closing reopened run", tr.Close())
}
